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

let mac_keyed k data =
  let inner = Sha256.copy k.inner in
  Sha256.feed inner data;
  let outer = Sha256.copy k.outer in
  Sha256.feed outer (Sha256.finalize inner);
  Sha256.finalize outer

let mac ~key data = mac_keyed (keyed key) data

let mac_string ~key s = mac ~key (Bytes.of_string s)

let verify ~key data ~tag =
  let expected = mac ~key data in
  if Bytes.length expected <> Bytes.length tag then false
  else begin
    let diff = ref 0 in
    for i = 0 to Bytes.length expected - 1 do
      diff := !diff lor (Char.code (Bytes.get expected i) lxor Char.code (Bytes.get tag i))
    done;
    !diff = 0
  end
  [@@leak_ok
    "length check then a constant-time fold over fixed-size tags; the \
     accept/reject outcome is the protocol's public result"]

let derive ~key ~label = mac_string ~key ("psp-derive:" ^ label)
