(** Keyed Bloom filters over integer elements.

    The Williams–Sion PIR server stores, per pyramid level, an encrypted
    Bloom filter that lets the SCP test level membership without
    touching the level's buckets.  Probe positions come from a keyed PRF
    so the host cannot predict them. *)

type t

val create : key:bytes -> label:string -> bits:int -> hashes:int -> t
(** Empty filter of [bits] cells probed [hashes] times per element.
    @raise Invalid_argument unless both are positive. *)

val sized_for : key:bytes -> label:string -> expected:int -> fp_rate:float -> t
(** Filter dimensioned by the standard formulas for [expected] insertions
    at target false-positive rate [fp_rate]. *)

val positions : t -> int -> int list
(** The [hashes] cell indices an element probes, in probe order — the
    cells {!add} sets and {!mem} tests. *)

val add : t -> int -> unit
(** Insert an element (idempotent for the filter's purposes). *)

val mem : t -> int -> bool
(** No false negatives; false positives at roughly the design rate. *)

val count : t -> int
(** Number of [add] calls so far. *)

val bits : t -> int
(** Cell count the filter was created with. *)

val fp_estimate : t -> float
(** Expected false-positive probability given current load. *)

val clear : t -> unit
(** Empty the filter in place, keeping key, size and probe count. *)
