(* All 32-bit words are kept in native ints masked to 32 bits. *)

let mask = 0xFFFFFFFF

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
     0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
     0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
     0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
     0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
     0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
     0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
     0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
     0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

type ctx = {
  h : int array; (* 8 state words *)
  block : bytes; (* 64-byte input block being filled *)
  mutable fill : int;
  mutable total : int; (* total message bytes fed *)
  w : int array; (* 64-entry message schedule scratch *)
}

let init () =
  { h =
      [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
         0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |];
    block = Bytes.create 64;
    fill = 0;
    total = 0;
    w = Array.make 64 0 }

(* For a 32-bit x, the low 32 bits of (x lor (x lsl 32)) lsr n are
   x rotated right by n (n <= 30: no bit falls off the 63-bit int), so
   one doubled word serves all three rotations of a Σ/σ function. *)
let doubled x = x lor (x lsl 32)

let compress ctx =
  let w = ctx.w in
  for i = 0 to 15 do
    w.(i) <- Int32.to_int (Bytes.get_int32_be ctx.block (4 * i)) land mask
  done;
  for i = 16 to 63 do
    let x = w.(i - 15) and y = w.(i - 2) in
    let xx = doubled x and yy = doubled y in
    let s0 = (((xx lsr 7) lxor (xx lsr 18)) land mask) lxor (x lsr 3) in
    let s1 = (((yy lsr 17) lxor (yy lsr 19)) land mask) lxor (y lsr 10) in
    w.(i) <- (w.(i - 16) + s0 + w.(i - 7) + s1) land mask
  done;
  let a = ref ctx.h.(0) and b = ref ctx.h.(1) and c = ref ctx.h.(2) in
  let d = ref ctx.h.(3) and e = ref ctx.h.(4) and f = ref ctx.h.(5) in
  let g = ref ctx.h.(6) and hh = ref ctx.h.(7) in
  for i = 0 to 63 do
    let ee = doubled !e and aa = doubled !a in
    let s1 = ((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land mask in
    let ch = (!e land !f) lxor (lnot !e land !g) in
    let t1 = (!hh + s1 + ch + k.(i) + w.(i)) land mask in
    let s0 = ((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land mask in
    let maj = (!a land !b) lor (!c land (!a lor !b)) in
    let t2 = (s0 + maj) land mask in
    hh := !g;
    g := !f;
    f := !e;
    e := (!d + t1) land mask;
    d := !c;
    c := !b;
    b := !a;
    a := (t1 + t2) land mask
  done;
  ctx.h.(0) <- (ctx.h.(0) + !a) land mask;
  ctx.h.(1) <- (ctx.h.(1) + !b) land mask;
  ctx.h.(2) <- (ctx.h.(2) + !c) land mask;
  ctx.h.(3) <- (ctx.h.(3) + !d) land mask;
  ctx.h.(4) <- (ctx.h.(4) + !e) land mask;
  ctx.h.(5) <- (ctx.h.(5) + !f) land mask;
  ctx.h.(6) <- (ctx.h.(6) + !g) land mask;
  ctx.h.(7) <- (ctx.h.(7) + !hh) land mask

let feed ctx data =
  let n = Bytes.length data in
  ctx.total <- ctx.total + n;
  let pos = ref 0 in
  while !pos < n do
    let take = min (64 - ctx.fill) (n - !pos) in
    Bytes.blit data !pos ctx.block ctx.fill take;
    ctx.fill <- ctx.fill + take;
    pos := !pos + take;
    if ctx.fill = 64 then begin
      compress ctx;
      ctx.fill <- 0
    end
  done
  [@@leak_ok
    "compression schedule depends only on the input length, never on content; \
     every length fed here is public (block-padded pages, fixed-size tags)"]

let feed_string ctx s = feed ctx (Bytes.of_string s)

(* only the filled prefix of the block is state; the schedule is scratch *)
let copy_into ~src ~dst =
  Array.blit src.h 0 dst.h 0 8;
  Bytes.blit src.block 0 dst.block 0 src.fill;
  dst.fill <- src.fill;
  dst.total <- src.total

let finalize_into ctx out =
  if Bytes.length out < 32 then invalid_arg "Sha256.finalize_into: need 32 bytes";
  (* padding, written in place: 0x80, zeros, 8-byte big-endian bit
     length — one more block when the length does not fit after 0x80 *)
  let block = ctx.block in
  Bytes.set block ctx.fill '\x80';
  Bytes.fill block (ctx.fill + 1) (63 - ctx.fill) '\000';
  if ctx.fill >= 56 then begin
    compress ctx;
    Bytes.fill block 0 56 '\000'
  end;
  Bytes.set_int64_be block 56 (Int64.of_int (8 * ctx.total));
  compress ctx;
  ctx.fill <- 0;
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int ctx.h.(i))
  done
  [@@leak_ok
    "padding arithmetic depends only on the fed length, never on content; the \
     output is a fixed 32 bytes"]

let finalize ctx =
  let out = Bytes.create 32 in
  finalize_into ctx out;
  out

let digest data =
  let ctx = init () in
  feed ctx data;
  finalize ctx

let digest_string s = digest (Bytes.of_string s)

let hex b =
  let buf = Buffer.create (2 * Bytes.length b) in
  Bytes.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) b;
  Buffer.contents buf
