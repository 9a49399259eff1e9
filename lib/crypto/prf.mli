(** Keyed pseudo-random functions over integers.

    Thin, typed wrappers over HMAC-SHA-256 used by the oblivious store:
    the Feistel round functions that place items on level slots, and
    the Bloom-filter probe positions.  Each call is the HMAC of one
    16-byte message (input and a salt); since an instance keeps its
    key's pad states ({!Hmac.keyed}), a call costs two SHA-256
    compressions.  It writes into scratch buffers the instance owns
    ({!Hmac.mac_keyed_into}), so {!int} and {!index} allocate nothing. *)

type t
(** A keyed PRF instance.  It carries mutable scratch state: calls on
    one [t] must not overlap, so a [t] must not be shared across
    domains.  Two instances share nothing and may be used interleaved
    (ROADMAP, "Domain-safe [Obs]": a rebuild domain would need its own
    instances). *)

val create : key:bytes -> label:string -> t
(** Instance keyed by [derive key label]; distinct labels are
    independent PRFs.  The HMAC key is prepared here, once. *)

val int : t -> int -> int
(** [int t x] is a 62-bit non-negative pseudo-random value of [x]. *)

val int_mod : t -> int -> int -> int
(** [int_mod t x m] is uniform-ish in [[0,m)].
    @raise Invalid_argument if [m <= 0]. *)

val bytes : t -> int -> int -> bytes
(** [bytes t x n] is an [n]-byte pseudo-random string for input [x]. *)

val index : t -> int -> int -> modulus:int -> int
(** [index t x i ~modulus] is element [i] (from 0) of
    [indices t x ~count ~modulus] for any [count > i], computed alone
    and without allocating.
    @raise Invalid_argument if [modulus <= 0]. *)

val indices : t -> int -> count:int -> modulus:int -> int list
(** [count] independent values in [[0,modulus)] for input [x] —
    the Bloom-filter probe positions for element [x]. *)
