(** The scheme-agnostic execution engine.

    Theorem 1 rests on every query executing one publicly-known plan, so
    the plan — not the scheme — owns the retrieval loop here: the engine
    walks {!Psp_index.Query_plan.steps} and fills every fetch slot with
    the page a {!SCHEME} asks for, or a dummy retrieval when the scheme
    needs nothing (padding), and nothing past it.  Retry with
    deterministic backoff, telemetry spans at plan-fixed positions, and
    trace conformance (the walker issues exactly the step list that
    {!Privacy.expected_trace} folds over) all live here, once.

    Schemes are passive: [next_page] picks which page index fills the
    slot the engine was issuing anyway, [deliver] consumes the payload,
    [barrier] runs plan-fixed client-local decode points, and [answer]
    solves over the accumulated {!Store}.  Nothing a scheme does can
    change how many fetches the server observes. *)

type retry_policy = {
  max_attempts : int;  (** total tries per retrieval, first one included *)
  base_backoff : float;
      (** simulated seconds before the first retry; doubles per attempt *)
}

val default_retry : retry_policy
(** 4 attempts, 0.1 s base backoff. *)

type ctx = {
  header : Psp_index.Header.t;
  psize : int;  (** page size in bytes, from the downloaded header *)
}

type query = { rs : int; rt : int; sx : float; sy : float; tx : float; ty : float }
(** Located source/target regions plus the raw coordinates — all secret. *)

type answer = (int list * float) option * int
(** The path (if any) and the consumed region budget (see
    {!Client.result.regions_fetched}). *)

module type SCHEME = sig
  type state

  val init : ctx -> query -> state

  val next_page : state -> file:string -> int option
  (** The page index to fill the current fetch slot against [file], or
      [None] when the scheme has no real need (the engine pads with a
      dummy retrieval of page 0). *)

  val deliver : state -> file:string -> bytes -> unit
  (** The payload of the last real slot this state requested. *)

  val barrier : state -> label:string -> unit
  (** A plan-fixed client-local decode point (no fetches). *)

  val exhausted : state -> bool
  (** No further real fetches needed.  Asked once per member after the
      walk; it may finish client-local work but never fetches.  [false]
      fails the member closed. *)

  val answer : state -> answer
end

type scheme = (module SCHEME)

exception Gave_up of { point : string; attempts : int }
(** The retry budget ran out at the named failpoint. *)

val recoverable : exn -> string option
(** The failpoint name for faults the retry loop may absorb — transient
    injections and checksum failures (redacted to the file name). *)

val failover_class : exn -> string option
(** The reason string for failures that must fail the {e replica} over
    instead of being retried in place: {!Psp_pir.Server.Tampered}
    (redacted to the file name), {!Psp_pir.Server.Replica_down} and
    {!Psp_pir.Server.Replica_timeout}.  Disjoint from {!recoverable};
    the client's failover loop replays the entire public plan against
    the next healthy replica. *)

val with_retry :
  policy:retry_policy -> on_retry:(backoff:float -> unit) -> (unit -> 'a) -> 'a
(** Bounded retry with deterministic exponential backoff
    ([base_backoff · 2{^attempt-1}]).  The schedule depends only on
    fault outcomes and attempt numbers — never on query content — so
    traces stay indistinguishable under any fixed fault schedule.
    @raise Gave_up when the budget is exhausted. *)

(** {2 Pacing: phase reports for the modeled timeline}

    The walk has two phases with different resources: a {e server}
    phase (every PIR round) bounded by the serial SCP, and a {e client}
    phase (decode plus the solve over the accumulated store) that only
    burns handheld CPU.  A {!pacing} record reports the cost of each:
    the accounted server seconds once the last server-visible operation
    is done, and the plan-fixed decode byte volume.  The serving
    scheduler places each batch on a modeled two-resource timeline from
    these two numbers ({!Psp_serve.Timeline}), where batch [i+1]'s fetch
    may overlap batch [i]'s decode; the walk itself always runs to
    completion.

    Everything reported is public: accounted seconds are
    plan-determined cost aggregates, and the byte count is the public
    step list's slot count times the page size.  Reports
    fire exactly once per walk, on aborted walks too, so a scheduler's
    accounting never depends on the outcome. *)

type pacing = {
  on_server : seconds:float -> unit;
      (** total server-side accounted seconds after the last
          server-visible operation
          ({!Psp_pir.Server.Session.accounted_seconds} summed over the
          batcher's sessions) *)
  on_decode : bytes:int -> unit;
      (** plan-fixed byte volume the client-side decode consumes:
          members × plan slots × page size *)
}

val sequential : pacing
(** The inert default: both hooks do nothing. *)

val run_batch :
  ?pacing:pacing ->
  scheme ->
  Psp_pir.Batcher.t ->
  policy:retry_policy ->
  ctx ->
  query array ->
  answer option array
(** The walker's one entry point: walk the plan once for N same-plan
    queries in lockstep (a single query is N = 1).  A member the plan
    could not finish ([exhausted]) gets [None]; it walked the same plan.
    Each fetch slot
    becomes one merged {!Psp_pir.Batcher.fetch} pass, and a retry
    re-issues every member's identical request so members stay mutually
    trace-identical.  The batch width flows through the batcher into the
    oblivious store, where the pass executes as one level scan per level
    per chunk ({!Psp_pir.Pyramid_store.fetch_many}) — so the engine's
    simulated amortization and the store's executed page touches agree
    by construction.
    @raise Gave_up on retry-budget exhaustion; Failure on a malformed
    database; Invalid_argument unless there is one query per batcher
    session. *)
