(* The block function runs in C ([chacha20_stubs.c]): a 16-lane AVX-512
   core or an 8-lane AVX2 core where the CPU has one, chosen once per
   process, and the portable 4-lane vector core for every remainder and
   every other machine.  This side checks every size before the call, so
   the stubs never see an out-of-range pointer. *)

external xor_stream : bytes -> bytes -> int -> bytes -> bytes -> unit = "psp_chacha20_xor"
  [@@noalloc]
  [@@leak_ok
    "fixed 10 double rounds per 16, 8 or 4 blocks, trip counts on the public message \
     length only, no key- or data-dependent branch or table index"]

external key_stream : bytes -> bytes -> int -> bytes -> unit = "psp_chacha20_keystream"
  [@@noalloc]
  [@@leak_ok
    "the xor_stream core writing the keystream directly: same rounds, trip \
     counts on the public output length only"]

external xor_stream_portable : bytes -> bytes -> int -> bytes -> bytes -> unit
  = "psp_chacha20_xor_portable"
  [@@noalloc]
  [@@leak_ok
    "xor_stream on the portable 4-lane core alone, reachable for tests: same \
     rounds, trip counts on the public message length only"]

external key_stream_portable : bytes -> bytes -> int -> bytes -> unit
  = "psp_chacha20_keystream_portable"
  [@@noalloc]
  [@@leak_ok
    "key_stream on the portable 4-lane core alone, reachable for tests: same \
     rounds, trip counts on the public output length only"]

external xor_stream_avx2 : bytes -> bytes -> int -> bytes -> bytes -> unit
  = "psp_chacha20_xor_avx2"
  [@@noalloc]
  [@@leak_ok
    "xor_stream on the 8-lane AVX2 core where the CPU has AVX2 (the portable core \
     elsewhere), reachable for tests: same rounds, trip counts on the public \
     message length only"]

external key_stream_avx2 : bytes -> bytes -> int -> bytes -> unit
  = "psp_chacha20_keystream_avx2"
  [@@noalloc]
  [@@leak_ok
    "key_stream on the AVX2 core where the CPU has AVX2, reachable for tests: same \
     rounds, trip counts on the public output length only"]

external level : unit -> int = "psp_chacha20_level"
  [@@noalloc]
  [@@leak_ok "reads the core chosen at process start from CPUID; takes no data"]

let core = match level () with 2 -> "avx512" | 1 -> "avx2" | _ -> "portable"

let check_sizes key nonce =
  if Bytes.length key <> 32 then invalid_arg "Chacha20: key must be 32 bytes";
  if Bytes.length nonce <> 12 then invalid_arg "Chacha20: nonce must be 12 bytes"

let check_into src dst =
  if Bytes.length src <> Bytes.length dst then
    invalid_arg "Chacha20.encrypt_into: src and dst lengths differ"

let keystream_into ~key ~nonce ?(counter = 0) dst =
  check_sizes key nonce;
  key_stream key nonce counter dst

let block ~key ~nonce ~counter =
  let out = Bytes.create 64 in
  keystream_into ~key ~nonce ~counter out;
  out

let encrypt_into ~key ~nonce ?(counter = 0) ~src dst =
  check_into src dst;
  check_sizes key nonce;
  xor_stream key nonce counter src dst

let encrypt ~key ~nonce ?(counter = 0) data =
  let out = Bytes.create (Bytes.length data) in
  encrypt_into ~key ~nonce ~counter ~src:data out;
  out

let decrypt = encrypt

let keystream ~key ~nonce n =
  let out = Bytes.create n in
  keystream_into ~key ~nonce out;
  out

module Portable = struct
  let encrypt_into ~key ~nonce ?(counter = 0) ~src dst =
    check_into src dst;
    check_sizes key nonce;
    xor_stream_portable key nonce counter src dst

  let keystream_into ~key ~nonce ?(counter = 0) dst =
    check_sizes key nonce;
    key_stream_portable key nonce counter dst
end

module Avx2 = struct
  let core = if level () >= 1 then "avx2" else "portable"

  let encrypt_into ~key ~nonce ?(counter = 0) ~src dst =
    check_into src dst;
    check_sizes key nonce;
    xor_stream_avx2 key nonce counter src dst

  let keystream_into ~key ~nonce ?(counter = 0) dst =
    check_sizes key nonce;
    key_stream_avx2 key nonce counter dst
end
