(** N independent {!Server}s over one published database, with
    per-replica circuit breakers and deterministic selection.

    The replica set is the client-side view of a replicated LBS: every
    replica serves the same sealed page files (same pack-time HMAC
    tags), so any healthy replica can serve any query — and because
    every query walks the same public plan, failing over means replaying
    the {e entire} plan against the next replica, never resuming
    mid-plan.  Each replica therefore observes either a complete plan
    trace or a fault-schedule-determined prefix of one, both
    query-independent (Theorem 1 per replica; docs/RESILIENCE.md).

    Health tracking is public-signal only: breakers consume fault
    outcomes and the deterministic simulated clock, so replica selection
    is a pure function of public history.  The failover loop itself
    lives in [Psp_core.Client]; this module owns the servers, the
    breakers and the clock. *)

type t

exception No_replica_available
(** Every breaker is [Open] and still cooling down. *)

val create :
  ?mode:Server.mode ->
  cost:Cost_model.t ->
  key:bytes ->
  replicas:int ->
  Psp_storage.Page_file.t list ->
  t
(** [replicas] servers (indices [0..replicas-1]) over the same page
    files, each with a fresh breaker ({!Breaker.create}'s default
    threshold and cooldown, jitter seeded by the replica index).  The files
    are sealed once; oblivious modes build one store per replica.
    @raise Invalid_argument if [replicas < 1]. *)

val width : t -> int
val server : t -> int -> Server.t
val breaker : t -> int -> Breaker.t

val clock : t -> float
(** Simulated seconds accumulated so far — the breakers' time base. *)

val advance : t -> float -> unit
(** Advance the simulated clock (negative deltas are ignored).  The
    client charges each attempt's modeled response time here so breaker
    cooldowns elapse in simulated, not wall-clock, time. *)

val select : t -> int option
(** The replica to serve the next exchange: the current one while its
    breaker admits it, else the first available scanning forward
    (sticky round-robin).  [None] when every breaker is open.  A pure
    function of breaker state and the clock — never of query content. *)

val select_exn : t -> int
(** {!select}, counting the attempt in [pir.replica.attempts].
    @raise No_replica_available when every breaker is open. *)

val record_success : t -> int -> unit
(** The replica completed a full plan: closes its breaker. *)

val record_failure : t -> int -> unit
(** The replica failed an exchange (down, timeout, tamper, retry
    exhaustion): feeds its breaker at the current clock, counts the
    failover, and moves selection to the next replica. *)
