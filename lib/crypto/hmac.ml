let block_size = 64

let normalize_key key =
  let key = if Bytes.length key > block_size then Sha256.digest key else key in
  let padded = Bytes.make block_size '\000' in
  Bytes.blit key 0 padded 0 (Bytes.length key);
  padded
  [@@leak_ok
    "branches on the key length only; keys are fixed-size protocol secrets \
     whose length is public"]

let xor_pad key byte =
  Bytes.map (fun c -> Char.chr (Char.code c lxor byte)) key

(* The SHA-256 states after absorbing the one-block ipad and opad: the
   per-key half of HMAC, computed once and copied per message. *)
type keyed = { inner : Sha256.ctx; outer : Sha256.ctx }

let keyed key =
  let key = normalize_key key in
  let absorb byte =
    let ctx = Sha256.init () in
    Sha256.feed ctx (xor_pad key byte);
    ctx
  in
  { inner = absorb 0x36; outer = absorb 0x5C }

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

let derive ~key ~label = mac_string ~key ("psp-derive:" ^ label)
