(** Effects-based pipelined session executor.

    A plan walk has two phases with different bottlenecks: the {e fetch}
    phase (every PIR round, bounded by the serial SCP server) and the
    {e client tail} (trailing decode plus the Dijkstra solve — handheld
    CPU only).  Running batches strictly one after the other leaves the
    server idle while a client decodes.  This executor runs each batch
    as a resumable fiber (OCaml 5 effect handlers): the fiber performs
    {!release} at the engine's release point — after its last
    server-visible operation — and parks there, letting the next batch's
    fetch pass start while the parked tail waits.  A bounded in-flight
    window ([depth], default 2) caps how many parked tails may be
    outstanding; [depth = 1] reproduces the synchronous schedule
    exactly.

    {2 What the pipeline changes — and what it provably cannot}

    Only wall-clock timing.  The fiber suspends strictly {e after} the
    engine has issued every server-visible operation of its walk, so
    the server observes the same fetch sequence, in the same order, as
    under synchronous execution; a fixed fault schedule therefore lands
    on the same retrievals of the same batches at every depth.  The tail
    that runs "late" is client-local: solve, result assembly,
    statistics.  Scheduling decisions here read
    only public signals — arrival times, plan-determined accounted
    seconds, plan-fixed decode byte volumes — never query content
    (docs/ENGINE.md, "Suspendable walks").

    {2 The modeled timeline}

    Real execution is reordered (fiber interleaving); the {e reported}
    instants come from a two-resource timeline over the public phase
    costs.  With batch [i]'s ready instant [r_i], fetch cost [F_i] and
    decode cost [D_i]:

    - start:    [s_i = max r_i  e_(i-1)  c_(i-depth)]  (serial server;
      bounded window)
    - fetch end:[e_i = s_i + F_i]
    - complete: [c_i = e_i + D_i]

    Depth 1 degenerates to [s_i = max r_i c_(i-1)] — the synchronous
    schedule. *)

type phase =
  | Fetch of float  (** seconds of serial server (PIR + comm + CPU) work *)
  | Decode of float  (** seconds of client-local decode work *)

val yield : phase -> unit
(** Report a phase cost from inside a fiber.  Costs of like phases
    accumulate.  @raise Effect.Unhandled outside {!submit}. *)

val release : unit -> unit
(** Suspend the calling fiber at its release point: every server-visible
    operation is done, only client-local work remains.  The fiber is
    resumed by the executor (window pressure, {!await} or {!drain}).  At
    most one release per fiber.
    @raise Effect.Unhandled outside {!submit}. *)

val pacing : decode_seconds:(bytes:int -> float) -> Psp_core.Engine.pacing
(** Adapt the engine's phase reports to this executor's effects: the
    engine's [on_server] becomes [yield (Fetch _)], [on_decode] becomes
    [yield (Decode (decode_seconds ~bytes))] (the caller prices the
    plan-fixed byte volume, e.g. {!Psp_pir.Cost_model.decode_seconds}),
    and [on_release] performs {!release}.  Pass the result to
    {!Psp_core.Client.query_nodes_batch} inside a {!submit} thunk. *)

type 'a t
(** A pipelined executor with a bounded in-flight window. *)

type 'a job
(** One submitted fiber and its timeline. *)

val create : ?depth:int -> unit -> 'a t
(** [depth] (default 2) bounds the in-flight window: batch [i]'s fetch
    pass may not start before batch [i - depth] completed.  [depth = 1]
    is the synchronous schedule.
    @raise Invalid_argument if [depth < 1]. *)

val depth : 'a t -> int

val submit : 'a t -> ready:float -> (unit -> 'a) -> 'a job
(** Run [f] as a fiber until it performs {!release} (or returns), then
    compute its timeline against the executor clock: the fetch may not
    start before [ready] (the batch's formation instant), before the
    previous fetch ended, or before the batch [depth] submissions ago
    completed.  Submissions must be in nondecreasing [ready] order —
    the caller's formation order.  If the window is full, the oldest
    parked tail is resumed first.  Each fiber runs under its own
    {!Psp_obs.Obs} span context, so telemetry shapes are identical to
    sequential execution at every depth.  Exceptions raised by [f]
    propagate here (or at the {!await}/{!drain} that resumes the tail). *)

val await : 'a t -> 'a job -> 'a
(** Force [job]'s tail (resuming older parked tails first, in
    submission order) and return its result.  Idempotent. *)

val drain : 'a t -> unit
(** Resume every parked tail in submission order and publish the
    executor's telemetry (overlap histogram and fraction).  Call once
    after the last {!submit}; further submissions restart the window. *)

val result : 'a job -> 'a option
(** The fiber's result, if its tail has run ([None] while parked). *)

(** {2 Job timelines} — modeled instants/costs, meaningful once the job
    was submitted (overlap keeps accruing until {!drain}). *)

val started_at : 'a job -> float
val fetch_finished_at : 'a job -> float
val completed_at : 'a job -> float
val fetch_seconds : 'a job -> float
val decode_seconds : 'a job -> float

val overlap_seconds : 'a job -> float
(** Seconds of this job's decode interval hidden under later jobs' fetch
    intervals — 0 at depth 1 by construction. *)

val in_flight : 'a t -> int
(** Parked (released, tail not yet run) fibers. *)

val makespan : 'a t -> float
(** Latest completion instant across all submitted jobs (0 if none). *)
