(* The compression function runs in C ([sha256_stubs.c]); the state
   words live in an [int array] of immediates the stub updates in place.
   The dispatched stub runs SHA-NI where the CPU has it, chosen once per
   process; the portable stub is the scalar core on every machine.
   Every call is bounds-checked here first. *)

external compress_stub : int array -> bytes -> int -> int -> unit = "psp_sha256_compress"
  [@@noalloc]
  [@@leak_ok
    "fixed 64 rounds per 64-byte block and a block count the caller derives from \
     the public input length, no data-dependent branch; the K table is indexed by \
     the round number only"]

external portable_stub : int array -> bytes -> int -> int -> unit
  = "psp_sha256_compress_portable"
  [@@noalloc]
  [@@leak_ok
    "the scalar core the dispatched stub falls back to, reachable for tests: same \
     fixed rounds, block count from the public input length"]

external hardware : unit -> bool = "psp_sha256_hardware"
  [@@noalloc]
  [@@leak_ok "reads the core chosen at process start from CPUID; takes no data"]

let core = if hardware () then "sha-ni" else "portable"

let check_blocks buf off nblocks =
  if off < 0 || nblocks < 0 || off > Bytes.length buf - (64 * nblocks) then
    invalid_arg "Sha256.compress: block out of range"

let compress_blocks h buf off nblocks =
  check_blocks buf off nblocks;
  compress_stub h buf off nblocks

let portable_blocks h buf off nblocks =
  check_blocks buf off nblocks;
  portable_stub h buf off nblocks

type ctx = {
  compress : int array -> bytes -> int -> int -> unit; (* one of the two above *)
  h : int array; (* 8 state words *)
  block : bytes; (* 64-byte input block being filled *)
  mutable fill : int;
  mutable total : int; (* total message bytes fed *)
}

let init_with compress =
  { compress;
    h =
      [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
         0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |];
    block = Bytes.create 64;
    fill = 0;
    total = 0 }

let init () = init_with compress_blocks

module Portable = struct
  let init () = init_with portable_blocks
end

(* Top up a partial block first; then the whole blocks go straight from
   [data] to the core in one call, and only the remainder is copied. *)
let feed ctx data =
  let n = Bytes.length data in
  ctx.total <- ctx.total + n;
  let pos = ref 0 in
  if ctx.fill > 0 then begin
    let take = min (64 - ctx.fill) n in
    Bytes.blit data 0 ctx.block ctx.fill take;
    ctx.fill <- ctx.fill + take;
    pos := take;
    if ctx.fill = 64 then begin
      ctx.compress ctx.h ctx.block 0 1;
      ctx.fill <- 0
    end
  end;
  let whole = (n - !pos) / 64 in
  if whole > 0 then begin
    ctx.compress ctx.h data !pos whole;
    pos := !pos + (64 * whole)
  end;
  let rest = n - !pos in
  Bytes.blit data !pos ctx.block ctx.fill rest;
  ctx.fill <- ctx.fill + rest
  [@@leak_ok
    "compression schedule depends only on the input length, never on content; \
     every length fed here is public (block-padded pages, fixed-size tags)"]

let feed_string ctx s = feed ctx (Bytes.of_string s)

(* only the filled prefix of the block is state; [dst] keeps its core *)
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
    ctx.compress ctx.h block 0 1;
    Bytes.fill block 0 56 '\000'
  end;
  Bytes.set_int64_be block 56 (Int64.of_int (8 * ctx.total));
  ctx.compress ctx.h block 0 1;
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
