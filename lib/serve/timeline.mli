(** The modeled two-resource timeline of pipelined serving.

    In the paper's deployment each client decodes its answer on its own
    handheld while the SCP serves the next batch, so batch [i]'s decode
    overlaps batch [i+1]'s fetch.  This module places batches on that
    timeline from their public phase costs; the process itself runs
    every batch to completion before the next one starts.  With batch
    [i]'s ready instant [r_i], fetch cost [F_i] and decode cost [D_i]:

    - start:     [s_i = max r_i e_(i-1) c_(i-depth)] (serial server,
      bounded in-flight window)
    - fetch end: [e_i = s_i + F_i]
    - complete:  [c_i = e_i + D_i]

    Depth 1 degenerates to [s_i = max r_i c_(i-1)], the synchronous
    schedule.  Every input is public: formation instants, plan-determined
    accounted seconds and plan-fixed decode volumes.

    Telemetry ({!Psp_obs.Obs}, interned at module load): the gauge
    [pipeline.depth] (set by {!create}), the counter [pipeline.batches]
    (one per {!place}), the histogram [pipeline.overlap_seconds] (one
    sample per job, when it leaves the window or at {!finish}) and the
    gauge [pipeline.overlap_fraction] (set by {!finish}).  Counter value
    and sample count depend only on how many batches were placed, never
    on the depth. *)

type job = private {
  started : float;
  fetch_end : float;
  completed : float;
  mutable overlap : float;
      (** seconds of this job's decode interval hidden under later
          jobs' fetch intervals; accrues while the job is in the window,
          and is always 0 at depth 1 *)
}

type t

val create : depth:int -> t
(** An empty timeline whose window holds [depth] jobs: batch [i]'s fetch
    may not start before batch [i - depth] completed.
    @raise Invalid_argument if [depth < 1]. *)

val place : t -> ready:float -> fetch:float -> decode:float -> job
(** Place the next batch.  Calls must come in formation order.
    @raise Invalid_argument on a negative instant or cost. *)

val finish : t -> unit
(** Observe the overlap of the jobs still in the window and publish the
    overlap fraction (hidden decode over total decode).  Call once after
    the last {!place}. *)

val makespan : t -> float
(** Latest completion instant over all placed jobs (0 if none). *)
