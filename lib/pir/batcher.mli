(** Session multiplexer for batched multi-query serving.

    All same-plan queries are trace-identical by construction (Theorem
    1), so N concurrent queries walk the same public step list in
    lockstep and their per-round page requests can be merged into one
    oblivious-store pass each ({!Server.Session.fetch_batch}) — the
    amortization that lets hardware-aided PIR serve real request
    volumes.  The pass is {e executed}, not just simulated: in
    [`Pyramid] server mode the width-k request lands in
    {!Pyramid_store.fetch_many}, which serves all k probes with one
    sequential scan per level while keeping every member's slot trace
    byte-identical to sequential execution.  A single query is a
    width-1 batcher: this is the only way the client reaches the PIR
    interface.
    The batch width is public: the LBS trivially observes how
    many sessions it serves, and learns nothing else beyond the one
    shared plan.

    A batcher owns one {!Server.Session} per member, so every member
    keeps its own trace, cost accounting and stats; the privacy tests
    assert the members' traces stay mutually equal and equal to a
    width-1 query's trace.

    This module is deliberately the {e same-plan merge core} only.
    Routing a mixed multi-tenant stream to per-plan batches, and
    choosing {e when} and {e how wide} to dispatch them, lives in the
    serving frontend ([Psp_serve.Scheduler]) — the split
    keeps the part with privacy obligations (this file) small and
    auditable. *)

type t

val start : Server.t -> width:int -> t
(** Open [width] concurrent sessions against one server.
    @raise Invalid_argument when [width <= 0]. *)

val width : t -> int
val server : t -> Server.t
val sessions : t -> Server.Session.t array
val session : t -> int -> Server.Session.t

val next_round : t -> unit
(** Advance every member to its next round.  The merged round is one
    message exchange, so its round-trip latency is split evenly across
    the members ([rtt / width] each). *)

val fetch : t -> file:string -> pages:int array -> bytes array
(** One merged pass: member [i] privately retrieves [pages.(i)] from
    [file].  Cost, trace and fault semantics per
    {!Server.Session.fetch_batch}; the width flows down to the store
    layer, so each extra member costs one slot touch per hierarchy
    level — executed and simulated alike.
    @raise Invalid_argument unless there is exactly one page per
    member. *)

val note_retry : t -> backoff:float -> unit
(** Account one batch-granular recovery attempt to every member, keeping
    their traces and recovery costs identical. *)

val finish : t -> Server.Session.stats array
