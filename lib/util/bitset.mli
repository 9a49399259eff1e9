(** Fixed-capacity bit sets.

    Used for Arc-flag bit-vectors (one bit per region attached to every
    edge) and for visited marks in graph traversals. *)

type t

val create : int -> t
(** [create n] is a set over the universe [0..n-1], initially empty. *)

val capacity : t -> int
(** The universe size [n] the set was created with. *)

val set : t -> int -> unit
(** [set t i] adds [i] to the set.  Raises [Invalid_argument] when [i]
    is outside [0..capacity t - 1]. *)

val unset : t -> int -> unit
(** [unset t i] removes [i] from the set. *)

val mem : t -> int -> bool
(** [mem t i] is [true] iff [i] is in the set. *)

val cardinal : t -> int
(** Population count. *)

val clear : t -> unit
(** Remove every element, keeping the capacity. *)

val copy : t -> t
(** An independent copy with the same capacity and contents. *)

val union_into : dst:t -> t -> unit
(** [union_into ~dst src] sets every bit of [src] in [dst].  Capacities
    must match. *)

val inter_into : dst:t -> t -> unit
(** [inter_into ~dst src] clears every bit of [dst] not set in [src].
    Capacities must match. *)

val equal : t -> t -> bool
(** Same capacity and same members. *)

val iter : (int -> unit) -> t -> unit
(** Iterate set bits in increasing order. *)

val to_list : t -> int list
(** Members in increasing order. *)

val of_list : int -> int list -> t
(** [of_list n l] is the set of capacity [n] holding the members of
    [l]. *)

val byte_size : t -> int
(** Serialized size in bytes: ceil(capacity/8). *)

val bytes_for : int -> int
(** [bytes_for n] is the serialized size of a set of capacity [n]. *)

val to_bytes : t -> bytes
(** Little-endian bit-packed encoding, [byte_size t] bytes long. *)

val of_bytes : int -> bytes -> t
(** [of_bytes n b] decodes a set of capacity [n] from [to_bytes] output. *)

val mem_bytes : bytes -> pos:int -> int -> bool
(** [mem_bytes b ~pos i] is [i]'s membership in the [to_bytes] output
    stored at [pos] in [b], read in place without decoding the set. *)
