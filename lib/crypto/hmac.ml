let block_size = 64

let normalize_key key =
  let key = if Bytes.length key > block_size then Sha256.digest key else key in
  let padded = Bytes.make block_size '\000' in
  Bytes.blit key 0 padded 0 (Bytes.length key);
  padded
  [@@leak_ok
    "branches on the key length only; keys are fixed-size protocol secrets \
     whose length is public"]

(* XOR every byte of the block with [byte], in place, eight bytes at a
   time (the byte repeated in each lane, so the host's order does not
   matter) *)
let xor_block block byte =
  let lanes = Int64.mul (Int64.of_int byte) 0x0101010101010101L in
  for i = 0 to (block_size / 8) - 1 do
    Bytes.set_int64_ne block (8 * i) (Int64.logxor (Bytes.get_int64_ne block (8 * i)) lanes)
  done

(* The SHA-256 states after absorbing the one-block ipad and opad: the
   per-key half of HMAC, computed once and copied per message.  The
   padded key is a fresh block, turned into the ipad and then, XORing
   with 0x36 lxor 0x5C, into the opad. *)
type keyed = { inner : Sha256.ctx; outer : Sha256.ctx }

let keyed key =
  let pad = normalize_key key in
  let absorb byte =
    xor_block pad byte;
    let ctx = Sha256.init () in
    Sha256.feed ctx pad;
    ctx
  in
  let inner = absorb 0x36 in
  { inner; outer = absorb (0x36 lxor 0x5C) }

(* the working state of one message: a context the midstates are
   copied into, and the inner digest *)
type scratch = { ctx : Sha256.ctx; inner_digest : bytes }

let scratch () = { ctx = Sha256.init (); inner_digest = Bytes.create 32 }
let start k s = Sha256.copy_into ~src:k.inner ~dst:s.ctx
let feed s data = Sha256.feed s.ctx data

let finish_into k s dst =
  Sha256.finalize_into s.ctx s.inner_digest;
  Sha256.copy_into ~src:k.outer ~dst:s.ctx;
  Sha256.feed s.ctx s.inner_digest;
  Sha256.finalize_into s.ctx dst

let mac_keyed_into k s data dst =
  start k s;
  feed s data;
  finish_into k s dst

let mac_keyed k data =
  let out = Bytes.create 32 in
  mac_keyed_into k (scratch ()) data out;
  out

let mac ~key data = mac_keyed (keyed key) data

let pad_words k = Array.append (Sha256.midstate k.inner) (Sha256.midstate k.outer)

let mac_string ~key s = mac ~key (Bytes.of_string s)

let equal a b =
  if Bytes.length a <> Bytes.length b then false
  else begin
    let diff = ref 0 in
    for i = 0 to Bytes.length a - 1 do
      diff := !diff lor (Char.code (Bytes.get a i) lxor Char.code (Bytes.get b i))
    done;
    !diff = 0
  end
  [@@leak_ok
    "length check then a constant-time fold over fixed-size tags; the \
     accept/reject outcome is the protocol's public result"]

let verify ~key data ~tag = equal (mac ~key data) tag

let derive_keyed k ~label = mac_keyed k (Bytes.of_string ("psp-derive:" ^ label))
let derive ~key ~label = derive_keyed (keyed key) ~label
