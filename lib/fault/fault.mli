(** Deterministic fault injection: named failpoints on a global registry.

    The storage and PIR layers consult failpoints at well-known names
    (see the "Failure handling" section of DESIGN.md for the naming
    convention and the full list).  Tests, the CLI and the bench harness
    arm points with a {!schedule}; instrumented code calls {!fires} or
    {!inject} on every pass through the point.

    Determinism is the whole design: a schedule decides from the point's
    global hit counter (and, for {!Probability}, a dedicated xoshiro
    stream seeded explicitly), never from wall clock, thread identity or
    — critically for the privacy argument — query content.  Two
    executions that reach a point the same number of times see the same
    faults, which is what makes retries oblivious (Theorem 1 survives
    fault handling; DESIGN.md gives the argument).

    The registry is process-global and not thread-safe, matching the
    single-threaded simulation.  With no point armed, an instrumented
    site costs one integer load. *)

type schedule =
  | Never  (** armed but inert (useful to assert zero behaviour drift) *)
  | Always
  | First of int  (** fail the first [n] hits, then recover *)
  | Hits of int list  (** fail on exactly these 1-based hit ordinals *)
  | Probability of float  (** each hit fails with probability [p] *)
  | Flapping of { up : int; down : int }
      (** cycle: [up] passing hits, then [down] failing hits, repeating —
          a replica that keeps going down and coming back (chaos
          harness).  Still a pure function of the hit ordinal. *)

exception Injected of { point : string; hit : int }
(** The typed fault raised by {!inject}-style instrumentation sites.
    [hit] is the 1-based ordinal of the failing pass. *)

val arm : ?seed:int -> string -> schedule -> unit
(** [arm name schedule] registers (or replaces) a failpoint with fresh
    counters.  [seed] (default 0) seeds the stream used by
    [Probability] schedules. *)

val reset : unit -> unit
(** Remove every failpoint. *)

val rewind : unit -> unit
(** Zero every point's counters and re-seed its stream, so the same
    schedule replays identically — run before each query when asserting
    trace equality across queries. *)

val active : unit -> bool
(** Is any failpoint armed?  O(1); the fast path of every site. *)

val fires : string -> bool
(** Consult a point: counts one hit and reports whether this hit fails.
    Unarmed points never fire (and count nothing). *)

val inject : string -> unit
(** [fires] and raise {!Injected} when it does. *)

val hits : string -> int
(** Total passes through the point since arming/rewind (0 if unarmed). *)

val fired : string -> int
(** How many of those passes failed. *)

val parse_spec : string -> (string * schedule, string) result
(** Parse a CLI/bench spec string,
    ["point=never|always|first:N|hits:N,N,...|p:F|flap:U,D"], e.g.
    ["pir.fetch.transient=hits:2,5,9"] or ["pir.fetch.corrupt=p:0.05"],
    into the point's name and schedule; arms nothing.  Returns a parse
    diagnostic on malformed input. *)
