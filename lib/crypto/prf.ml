(* the derived key's HMAC pad states, prepared once, and the scratch a
   call works in: every call below hashes one 16-byte message (two
   SHA-256 compressions) and allocates nothing *)
type t = { key : Hmac.keyed; scratch : Hmac.scratch; msg : bytes; digest : bytes }

let create ~key ~label =
  { key = Hmac.keyed (Hmac.derive ~key ~label);
    scratch = Hmac.scratch ();
    msg = Bytes.make 16 '\000';
    digest = Bytes.create 32 }

(* the message is x as 8 little-endian bytes of its 63-bit pattern (the
   top bit of the 64-bit field is 0), then a zero 8-byte salt; the result
   is the low 62 bits of the tag's first 8 bytes, little-endian *)
let int t x =
  Bytes.set_int64_le t.msg 0 (Int64.logand (Int64.of_int x) Int64.max_int);
  Hmac.mac_keyed_into t.key t.scratch t.msg t.digest;
  Int64.to_int (Bytes.get_int64_le t.digest 0) land max_int
