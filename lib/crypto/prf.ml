(* The derived key's HMAC pad states as sixteen words, prepared once.
   [fill] tabulates the PRF over 0 .. len - 1 in one C call
   ([sha256_stubs.c]): per entry, the HMAC of one 16-byte message, two
   SHA-256 compressions on the dispatched core. *)
type t = int array

external fill_stub : int array -> int array -> int -> int -> int -> unit = "psp_prf_fill"
  [@@noalloc]
  [@@leak_ok
    "two fixed SHA-256 compressions per entry, len entries whatever the key; the \
     table length is public (a Feistel half-width) and no branch or index depends \
     on the key or the digests"]

external fill_portable_stub : int array -> int array -> int -> int -> int -> unit
  = "psp_prf_fill_portable"
  [@@noalloc]
  [@@leak_ok
    "fill_stub on the portable SHA-256 core, reachable for tests: same fixed \
     compressions, trip count the public table length"]

let create ~key ~label = Hmac.pad_words (Hmac.keyed (Hmac.derive_keyed key ~label))

let check dst ~off ~len =
  if off < 0 || len < 0 || off > Array.length dst - len then
    invalid_arg "Prf.fill: range out of bounds"

let fill t dst ~off ~len ~mask =
  check dst ~off ~len;
  fill_stub t dst off len mask

module Portable = struct
  let fill t dst ~off ~len ~mask =
    check dst ~off ~len;
    fill_portable_stub t dst off len mask
end
