(** Sets of ints as strictly increasing arrays.

    The region sets and edge-id sets of index pre-computation and
    construction, and the border-node lists of a partition, are all
    kept in this form; every operation here is linear in its inputs
    (after the one sort in {!sort_dedup}). *)

val sort_dedup : int array -> int array
(** The elements in increasing order, each once.  An input that is
    already strictly increasing is returned itself, not copied;
    otherwise the result is a fresh array and the input is untouched. *)

val union : int array -> int array -> int array
(** Merge-union of two strictly increasing arrays: the same array
    [sort_dedup (Array.append a b)] gives, in linear time. *)

val diff : int array -> int array -> int array
(** [diff a b]: the elements of [a] not in [b], both strictly
    increasing. *)

val inter_count : int array -> int array -> int
(** The number of elements two strictly increasing arrays share,
    counted without allocating. *)
