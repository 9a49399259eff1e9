(** Small descriptive-statistics helpers for the experiment harness. *)

val mean : float array -> float
(** Arithmetic mean; 0 on empty input. *)

val total : float array -> float

val stddev : float array -> float
(** Population standard deviation; 0 on fewer than two samples. *)

val min_max : float array -> float * float
(** @raise Invalid_argument on empty input. *)

val percentile : float array -> float -> float
(** [percentile xs p] for [p] in [0,100], nearest-rank on a sorted copy.
    @raise Invalid_argument on empty input or p outside [0,100]. *)

val histogram : buckets:int -> lo:float -> hi:float -> float array -> int array
(** Fixed-width bucket counts over [lo,hi]; values outside the range are
    clamped into the first/last bucket. *)
