(** Cross-plan scheduler with adaptive batch width — the multi-tenant
    serving frontend.

    One simulated SCP serves several published databases ("tenants":
    e.g. a CI plan next to a PI plan) from a mixed query stream.  The
    scheduler keeps a per-tenant FIFO ({!Queue}), and whenever the
    serial server is free it either dispatches a {e due} lane as one
    same-plan batch ({!Psp_core.Client.query_nodes_batch}, which merges
    the members' fetches into single oblivious-store passes) or advances
    its virtual clock to the next event.

    {b Width policy.}  An adaptive lane is work-conserving: the moment
    the server is free it ships everything the lane has queued, with the
    width clamped into [[min_width, max_width]] and shrunk while the
    cost-model service estimate says a batch that wide would push the
    lane's oldest member past [slo].  While a batch is in service new
    arrivals accumulate, so the next batch is naturally wider — the
    width tracks load with no tuning.  A fixed-width lane is the classic
    fill-or-timeout batcher it is benchmarked against: it idles until
    [w] members arrive or its head has waited the full SLO, which is
    exactly what [bench --experiment serve] shows costing it the tail.
    Every input to these decisions is public: queue depths, arrival
    instants, configuration and {!Psp_pir.Cost_model} estimates.  The
    decision functions carry [[\@\@oblivious]] so psplint audits that
    they stay that way.

    {b Execution.}  Every batch, under either width rule, runs to
    completion when it is dispatched and is then placed on the modeled
    {!Timeline} from its accounted fetch seconds and its decode priced
    by {!Psp_pir.Cost_model.decode_seconds}; the virtual clock advances
    by the batch's modeled fetch plus decode, a plan-fixed quantity, so
    schedules are deterministic.  A fetch never starts before its batch
    was formed: a full batch ([width] members) is ready when its last
    member arrives, any other batch once its lane fired — the head's
    SLO deadline under {!Fixed}, or the end of the stream if that came
    first.  With that rule [depth = 1] is the synchronous schedule by
    construction.

    {b What load leaks.}  Arrival times, batch widths and which tenant
    each batch serves are visible to the LBS by definition — it serves
    the requests.  Per Theorem 1 it learns nothing {e more}: each
    member's trace stays byte-identical to a sequential run of the same
    plan, whatever the mix (test/test_serve.ml asserts this under a
    32-seed fault sweep). *)

type policy =
  | Adaptive
      (** work-conserving; width = clamp(min, max, queued), shrunk to
          keep the head's estimated latency inside the SLO *)
  | Fixed of int
      (** fill-or-timeout at width [w]: dispatch once [w] jobs are
          queued or when the head has waited the SLO; the comparison
          baseline benchmarked by [bench --experiment serve] *)

type config = {
  min_width : int;
  max_width : int;
  slo : float;  (** target end-to-end latency bound, model seconds *)
  policy : policy;  (** the width rule *)
  depth : int;
      (** batches in flight on the modeled {!Timeline} every batch is
          placed on: batch [i]'s PIR pass may overlap earlier batches'
          client-side decode.  Batch composition is
          decided on a {e formation} clock that advances by fetch +
          modeled decode per batch whatever the depth, so every
          member's trace and the server's fetch sequence are
          byte-identical across depths; only completion instants
          change (test/test_pipeline.ml asserts both).  [1] is the
          synchronous schedule; benchmarked by
          [bench --experiment pipeline]. *)
}

val default : config
(** width 1–16, 60 s SLO, adaptive, depth 1. *)

type tenant = {
  name : string;  (** the public tenant key, e.g. ["ci"] *)
  server : Psp_pir.Server.t;
  graph : Psp_graph.Graph.t;  (** for node-id endpoint resolution *)
}

type served = {
  job : Queue.job;
  result : Psp_core.Client.result;
  response : Psp_core.Response_time.t;
      (** the member's own cost share with [queue_seconds] set to its
          dispatch wait and [decode_seconds] set to its share of the
          batch's modeled decode *)
  latency : float;
      (** completion minus arrival: queueing wait plus the whole
          batch's fetch and decode (members complete together).  The
          completion instant comes from the execution timeline, so
          overlap at depth >= 2 shortens it *)
  width : int;  (** width of the batch that served it *)
  dispatched : float;
  completed : float;
}

type batch_record = {
  b_tenant : string;
  b_width : int;
  b_dispatched : float;
  b_service : float;
}

type report = {
  served : served array;  (** indexed by submission index *)
  batches : batch_record list;  (** chronological *)
  makespan : float;  (** virtual-clock instant the last batch finished *)
}

val mix : (string * (int * int) array * float array) list -> Queue.job array
(** Interleave per-tenant workloads ([tenant, query pairs, arrivals])
    into one submission-indexed stream ordered by arrival time.
    @raise Invalid_argument when a stream's pair and arrival counts
    differ. *)

val run :
  ?retry:Psp_core.Client.retry_policy ->
  config ->
  tenants:tenant list ->
  jobs:Queue.job array ->
  report
(** Serve the stream to completion.  Per-tenant gauges
    ([serve.<name>.queue.peak], [serve.<name>.width.last]), counters
    ([serve.<name>.batches]) and histograms ([serve.<name>.width],
    [serve.<name>.latency]) are recorded through {!Psp_obs.Obs} under
    the constant-shape policy — all derived from the public schedule.
    [retry] passes through to {!Psp_core.Client.query_nodes_batch}.
    @raise Invalid_argument on an invalid config, an unknown or
    duplicate tenant, or job indices that are not dense and unique. *)
