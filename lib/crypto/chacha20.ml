(* The block function runs in C ([chacha20_stubs.c]): one 4-lane vector
   core, four blocks per pass.  This side checks every size before the
   call, so the stubs never see an out-of-range pointer. *)

external xor_stream : bytes -> bytes -> int -> bytes -> bytes -> unit = "psp_chacha20_xor"
  [@@noalloc]
  [@@leak_ok
    "fixed 10 double rounds per 4 blocks, trip counts on the public message \
     length only, no key- or data-dependent branch or table index"]

external key_stream : bytes -> bytes -> int -> bytes -> unit = "psp_chacha20_keystream"
  [@@noalloc]
  [@@leak_ok
    "the xor_stream core writing the keystream directly: same rounds, trip \
     counts on the public output length only"]

let check_sizes key nonce =
  if Bytes.length key <> 32 then invalid_arg "Chacha20: key must be 32 bytes";
  if Bytes.length nonce <> 12 then invalid_arg "Chacha20: nonce must be 12 bytes"

let keystream_from ~key ~nonce ~counter dst =
  check_sizes key nonce;
  key_stream key nonce counter dst

let block ~key ~nonce ~counter =
  let out = Bytes.create 64 in
  keystream_from ~key ~nonce ~counter out;
  out

let encrypt_into ~key ~nonce ?(counter = 0) ~src dst =
  if Bytes.length src <> Bytes.length dst then
    invalid_arg "Chacha20.encrypt_into: src and dst lengths differ";
  check_sizes key nonce;
  xor_stream key nonce counter src dst

let encrypt ~key ~nonce ?(counter = 0) data =
  let out = Bytes.create (Bytes.length data) in
  encrypt_into ~key ~nonce ~counter ~src:data out;
  out

let decrypt = encrypt
let keystream_into ~key ~nonce dst = keystream_from ~key ~nonce ~counter:0 dst

let keystream ~key ~nonce n =
  let out = Bytes.create n in
  keystream_into ~key ~nonce out;
  out
