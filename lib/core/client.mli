(** The querying client — the left side of Figure 1.

    A client knows only its own source/destination coordinates and what
    the public header tells it; everything else arrives over the PIR
    interface.  This module is a facade: it downloads the header,
    locates the endpoint regions, and hands the {!Registry}-selected
    scheme to the {!Engine}, which walks the public query plan (CI §5.4,
    PI/PI* §6, HY §6, LM/AF §4) including the dummy padding that makes
    every trace conform to the published plan.

    There is one query path: {!query_batch} runs N same-plan queries in
    lockstep over one {!Psp_pir.Server.Session}, and a single query is a
    width-1 batch.  {!query_batch_replicated} adds whole-plan failover
    over a replica set; the [query_nodes*] functions are node-id
    adapters over those two.

    Returns the path (as a node-id sequence with its cost), the server
    session statistics (PIR time, communication time, per-file page
    counts, the adversary-visible trace) and the client-side CPU time —
    the three response-time components of Table 3. *)

type retry_policy = Engine.retry_policy = {
  max_attempts : int;  (** total tries per retrieval, first one included *)
  base_backoff : float;
      (** simulated seconds before the first retry; doubles per attempt *)
}

val default_retry : retry_policy
(** 4 attempts, 0.1 s base backoff. *)

type status =
  | Served  (** fault-free execution *)
  | Degraded of { retries : int }
      (** the answer is correct, but recovery from transient faults or
          corrupt pages cost [retries] extra retrievals *)
  | Unavailable of { point : string; attempts : int }
      (** the retry budget ran out at failpoint [point], or [point] is
          {!plan_exceeded}; no answer.  This replaces an exception so
          callers always get the trace and the recovery cost incurred. *)
  | Unknown_scheme of { scheme : string }
      (** the header announced a scheme tag the {!Registry} does not
          know, or a known tag with another scheme's plan; no oblivious
          round was begun.  This replaces a [Failure]
          so callers can distinguish a version skew from a malformed
          database. *)

type result = {
  path : (int list * float) option;
      (** node sequence (source first) and total cost; [None] if the
          destination is unreachable (or the query was [Unavailable]) *)
  stats : Psp_pir.Server.Session.stats;
  client_seconds : float;
  regions_fetched : int;
      (** region-page budget the query consumed, in region units (for
          LM/AF this counts the rs = rt dummy slot too — it is what plan
          calibration must budget for); 0 when [Unavailable] *)
  status : status;
}

val plan_exceeded : string
(** The [point] of an [Unavailable { attempts = 0 }] LM/AF query whose
    search outgrew the plan.  It walked the padded plan like any other
    (a conforming trace; its batch is unaffected), and being
    query-dependent it moves no {!Psp_obs.Obs} counter of its own. *)

type endpoints = { sx : float; sy : float; tx : float; ty : float }
(** One query's raw coordinates, for {!query_batch}. *)

val endpoints_of_nodes : Psp_graph.Graph.t -> (int * int) array -> endpoints array
(** Resolve (source, destination) node-id pairs to coordinates through
    the server-side graph — the way in for callers that hold node ids:
    [pspc query] and the tests. *)

exception Replica_failed of {
  replica : int;
  reason : string;
  stats : Psp_pir.Server.Session.stats array;
}
(** A replica-level failure ({!Engine.failover_class}: tampering,
    outage, timeout) aborted the plan walk.  The abandoned session is
    finished first, so the partial traces and accounted costs travel
    with the exception; {!query_batch_replicated} catches it and replays
    the whole plan against the next replica.

    A standalone {!Psp_pir.Server.t} is deliberately {e not} a replica
    set of one.  With no other host, whole-plan replay could only re-run
    the plan against the host that just failed or tampered, adding
    attempts (and failpoint consultations) that a standalone caller's
    traces and fault schedule never contained.  So {!query_batch} (and
    {!query_nodes}, {!query_nodes_batch}) let this exception escape when
    a replica failpoint fires or a page — the header included — fails
    its tag against a standalone server; callers that want failover
    serve through a {!Psp_pir.Replica_set}. *)

val query_batch :
  ?retry:retry_policy ->
  ?pacing:Engine.pacing ->
  Psp_pir.Server.t ->
  endpoints array ->
  result array
(** Execute N shortest-path queries, each from (sx, sy) to (tx, ty),
    concurrently over one {!Psp_pir.Server.Session}; a single query is
    [query_batch server [| e |]].  All members walk the same public
    plan in lockstep and each fetch slot becomes one merged
    oblivious-store pass, amortizing the PIR cost (Table 2) across the
    batch.  Source and destination are snapped to the nearest network
    node of their regions.  Member [i]'s result — path, stats,
    per-member trace — matches what a width-1 batch would have
    produced; [client_seconds] reports the per-query share of the
    batch's CPU time ([Sys.time]).  The batch width is public.
    Every member walks exactly the public plan, padded with dummy
    retrievals; a member whose search needs more is [Unavailable] at
    {!plan_exceeded}.  An empty array returns an empty array without
    contacting the server.

    Transient faults and checksum failures raised by the server are
    retried under [retry] (default {!default_retry}) with deterministic
    exponential backoff; the retry schedule depends only on fault
    outcomes and attempt numbers, never on query content, so traces stay
    indistinguishable across queries under any fixed fault schedule
    (DESIGN.md, "Failure handling").  A batch-granular fault that
    exhausts the budget degrades {e every} member to [Unavailable]
    identically; an unrecognised scheme tag yields [Unknown_scheme].

    [pacing] (default {!Engine.sequential}) receives the engine's two
    phase costs, from which the serving scheduler places the batch on
    its modeled timeline.  It changes nothing about what the server
    observes.
    @raise Replica_failed on a replica-level failure (see above);
    Failure on a malformed database, or a CI/PI/HY record that names more
    regions than the plan budgets (a database fault, not a query's). *)

(** {1 Replicated serving}

    Whole-plan replay failover over a {!Psp_pir.Replica_set}: when a
    replica fails mid-plan (tampering, outage, timeout — see
    {!Engine.failover_class}) or exhausts the retry budget, the entire
    public plan is replayed against the next healthy replica, never
    resumed.  Each replica therefore observes either a complete plan
    trace or a fault-schedule-determined prefix of one — both
    query-independent, so Theorem 1 holds per replica under every fault
    schedule (docs/RESILIENCE.md). *)

type abandoned = {
  on_replica : int;
  reason : string;  (** the {!Engine.failover_class} string *)
  attempt_stats : Psp_pir.Server.Session.stats array;
      (** the abandoned attempt's finished session: partial traces and
          the cost already incurred (one per batch member) *)
}

type replicated = {
  results : result array;
      (** one per query (singleton for {!query_nodes_replicated}); a query
          that survived via failover is at best [Degraded], its retry
          count raised by the number of failovers *)
  replica : int;  (** the replica that served the final attempt *)
  failovers : int;
  failover_seconds : float;
      (** modeled switch cost: {!Psp_pir.Cost_model.failover_seconds}
          summed over failovers (the abandoned attempts' own costs are
          in [abandoned]) *)
  abandoned : abandoned list;  (** oldest first *)
}

val query_batch_replicated :
  ?retry:retry_policy ->
  ?max_failovers:int ->
  Psp_pir.Replica_set.t ->
  endpoints array ->
  replicated
(** {!query_batch} against the replica the set's breakers select,
    failing over (whole-plan replay) on {!Replica_failed} or retry
    exhaustion until a replica serves, breakers admit no replica, or
    [max_failovers] (default [3 × width]) is exceeded — then the last
    attempt's [Unavailable] results are returned.  A {!plan_exceeded}
    result never fails over: a replay would show another replica which
    query overran.  Any replica-level
    fault is batch-granular, so the whole batch replays together and
    members stay mutually trace-identical on every replica.  Simulated
    time (attempt costs plus failover backoff) drives the breakers'
    clock.
    @raise Psp_pir.Replica_set.No_replica_available only when every
    breaker is already open before the first attempt. *)

val query_nodes :
  ?retry:retry_policy -> Psp_pir.Server.t -> Psp_graph.Graph.t -> int -> int -> result
(** A width-1 {!query_batch} over one node-id pair. *)

val query_nodes_batch :
  ?retry:retry_policy ->
  ?pacing:Engine.pacing ->
  Psp_pir.Server.t ->
  Psp_graph.Graph.t ->
  (int * int) array ->
  result array
(** {!query_batch} over node-id pairs ({!endpoints_of_nodes}). *)

val query_nodes_replicated :
  ?retry:retry_policy ->
  ?max_failovers:int ->
  Psp_pir.Replica_set.t ->
  Psp_graph.Graph.t ->
  int -> int ->
  replicated
(** A width-1 {!query_batch_replicated} over one node-id pair. *)
