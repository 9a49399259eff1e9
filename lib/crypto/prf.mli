(** Keyed pseudo-random functions over integers, tabulated.

    The oblivious store uses them for the Feistel round functions that
    place items on level slots.  The PRF of [x] is the HMAC-SHA-256 of
    one 16-byte message ([x] as 8 little-endian bytes of its 63-bit
    pattern, then an 8-byte zero salt) under a derived key, read as the
    low 62 bits of the tag's first 8 bytes (little-endian).  A Feistel
    round needs the PRF at every point of a small domain, so the only
    entry point is {!fill}: one C call computes the whole table from the
    key's HMAC pad states ({!Hmac.pad_words}), two SHA-256 compressions
    per entry on the dispatched core, and allocates nothing. *)

type t
(** A keyed PRF: the derived key's ipad and opad SHA-256 states.
    Immutable, so one [t] may be shared freely. *)

val create : key:Hmac.keyed -> label:string -> t
(** Instance keyed by [Hmac.derive_keyed key ~label]; distinct labels
    are independent PRFs.  The parent key's pad states are passed in
    prepared, so a key that derives several PRFs pays for them once. *)

val fill : t -> int array -> off:int -> len:int -> mask:int -> unit
(** [fill t dst ~off ~len ~mask] sets [dst.(off + x)] to the PRF of [x]
    [land mask], for every [x] in [[0, len)].
    @raise Invalid_argument if the range is not inside [dst]. *)

(** {!fill} on the portable SHA-256 core whatever the CPU offers, so
    tests compare both cores on every machine. *)
module Portable : sig
  val fill : t -> int array -> off:int -> len:int -> mask:int -> unit
end
