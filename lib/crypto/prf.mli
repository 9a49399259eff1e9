(** Keyed pseudo-random functions over integers.

    A thin, typed wrapper over HMAC-SHA-256 used by the oblivious store
    for the Feistel round functions that place items on level slots.
    Each call is the HMAC of one 16-byte message (the input and a zero
    salt); since an instance keeps its key's pad states
    ({!Hmac.keyed}), a call costs two SHA-256 compressions.  It writes
    into scratch buffers the instance owns ({!Hmac.mac_keyed_into}), so
    {!int} allocates nothing. *)

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
