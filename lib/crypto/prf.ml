(* the derived key's HMAC pad states, prepared once, and the scratch a
   call works in: every call below hashes one 16-byte message (two
   SHA-256 compressions) and allocates nothing *)
type t = { key : Hmac.keyed; scratch : Hmac.scratch; msg : bytes; digest : bytes }

let create ~key ~label =
  { key = Hmac.keyed (Hmac.derive ~key ~label);
    scratch = Hmac.scratch ();
    msg = Bytes.create 16;
    digest = Bytes.create 32 }

(* the message is x and salt as 8 little-endian bytes each, of their
   63-bit patterns (the top bit of each 64-bit field is 0); the tag lands
   in t.digest *)
let mac_of_int t x salt =
  Bytes.set_int64_le t.msg 0 (Int64.logand (Int64.of_int x) Int64.max_int);
  Bytes.set_int64_le t.msg 8 (Int64.logand (Int64.of_int salt) Int64.max_int);
  Hmac.mac_keyed_into t.key t.scratch t.msg t.digest

(* the low 62 bits of the first 8 digest bytes, little-endian *)
let digest_int t = Int64.to_int (Bytes.get_int64_le t.digest 0) land max_int

let int t x =
  mac_of_int t x 0;
  digest_int t

let int_mod t x m =
  if m <= 0 then invalid_arg "Prf.int_mod: modulus must be positive";
  int t x mod m

let bytes t x n =
  let out = Bytes.create n in
  let block = ref 0 in
  while 32 * !block < n do
    mac_of_int t x !block;
    let off = 32 * !block in
    Bytes.blit t.digest 0 out off (min 32 (n - off));
    incr block
  done;
  out

let index t x i ~modulus =
  if modulus <= 0 then invalid_arg "Prf.index: modulus must be positive";
  mac_of_int t x (i + 1);
  digest_int t mod modulus

let indices t x ~count ~modulus =
  if modulus <= 0 then invalid_arg "Prf.indices: modulus must be positive";
  List.init count (fun i -> index t x i ~modulus)
