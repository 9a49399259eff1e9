(* the derived key's HMAC pad states, prepared once: every call below
   hashes one 16-byte message, two SHA-256 compressions *)
type t = { key : Hmac.keyed }

let create ~key ~label = { key = Hmac.keyed (Hmac.derive ~key ~label) }

let mac_of_int t x salt =
  let buf = Bytes.create 16 in
  for i = 0 to 7 do
    Bytes.set buf i (Char.chr ((x lsr (8 * i)) land 0xFF));
    Bytes.set buf (8 + i) (Char.chr ((salt lsr (8 * i)) land 0xFF))
  done;
  Hmac.mac_keyed t.key buf

let int_of_digest d off =
  let v = ref 0 in
  for i = 0 to 7 do
    v := !v lor (Char.code (Bytes.get d (off + i)) lsl (8 * i))
  done;
  !v land max_int

let int t x = int_of_digest (mac_of_int t x 0) 0

let int_mod t x m =
  if m <= 0 then invalid_arg "Prf.int_mod: modulus must be positive";
  int t x mod m

let bytes t x n =
  let out = Buffer.create n in
  let block = ref 0 in
  while Buffer.length out < n do
    Buffer.add_bytes out (mac_of_int t x !block);
    incr block
  done;
  Bytes.sub (Buffer.to_bytes out) 0 n

let indices t x ~count ~modulus =
  if modulus <= 0 then invalid_arg "Prf.indices: modulus must be positive";
  List.init count (fun i -> int_of_digest (mac_of_int t x (i + 1)) 0 mod modulus)
