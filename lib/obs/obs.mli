(** Leakage-safe observability: counters, gauges, latency histograms,
    hierarchical spans and profiling hooks for the PIR query pipeline.

    {1 The constant-shape contract}

    In this system the adversary model is unusual: the server operator
    is the adversary, and anything the process records about its own
    execution — a counter, a log line, a span — is {e visible} to them.
    Instrumentation therefore obeys one rule, mirrored from the paper's
    Theorem 1 and enforced statically by [psplint]'s [secret-telemetry]
    rule (see DESIGN.md §5 and docs/OBSERVABILITY.md):

    {e only publicly-derivable quantities may be recorded.}

    Concretely: metric {e names} must be static strings or derived from
    public configuration (file names, scheme ids); counter {e deltas}
    must be constants or public plan quantities (pages per region,
    rounds per query); and no metric update may sit under
    secret-dependent control flow inside an [[@@oblivious]] function
    unless the site carries a justified [[@leak_ok]].  Durations of
    whole oblivious rounds are recordable because the plan fixes the
    work done per round; per-item timings keyed by secret data are
    not.

    The {!shape} export makes the contract testable: it renders every
    registered metric's {e structure} (names, counter values, sample
    and call counts, page attributions) while omitting every
    content-dependent measurement (durations).  Two queries
    executed under the same public plan must produce byte-identical
    shapes; [test/test_obs.ml] enforces this.

    {1 Design notes}

    The substrate is zero-dependency (stdlib only) so every library in
    the repository can link it, including [lib/fault] and
    [lib/storage] at the bottom of the stack.  All state lives in one
    process-global registry: instruments are interned by name, so
    [counter "x"] returns the same handle everywhere, and modules may
    intern at initialisation time without coordination.  Histograms use
    a fixed array of 64 log2 buckets — constant memory regardless of
    sample count.  Counters saturate at [max_int] instead of wrapping.
    The registry is not thread-safe; the query pipeline is
    single-threaded per session.  *)

(** {1 Counters} *)

type counter
(** A monotonic counter.  Saturates at [max_int]; never wraps. *)

val counter : string -> counter
(** [counter name] interns (or retrieves) the counter [name].  Names
    are conventionally dotted paths, e.g. ["pir.fetch.pages"]. *)

val incr : counter -> unit
(** Add 1. *)

val add : counter -> int -> unit
(** [add c n] adds [n] (which must be [>= 0]; negative deltas raise
    [Invalid_argument] — counters are monotonic).  Saturates at
    [max_int]. *)

val count : counter -> int
(** Current value. *)

(** {1 Gauges} *)

type gauge
(** A point-in-time float value (sizes, ratios, configuration). *)

val gauge : string -> gauge
(** Intern (or retrieve) the gauge [name]. *)

val set : gauge -> float -> unit
(** Replace the gauge's value. *)

val set_max : gauge -> float -> unit
(** Raise the gauge to [v] if [v] exceeds the current value — a
    high-watermark update (peak queue depth, widest batch).  Values at
    or below the current reading are ignored, so the gauge is monotone
    between {!reset}s. *)

val get : gauge -> float
(** Current value (0.0 before any {!set}). *)

(** {1 Histograms}

    Fixed-shape log2 histograms sized for latencies in seconds: 64
    buckets over a base resolution of 1 ns.  Bucket 0 catches values
    below 1 ns (including 0), bucket [i] for [1 <= i <= 62] covers
    [[base·2{^i-1}, base·2{^i})], and bucket 63 is the overflow
    bucket.  Exact count, sum, min and max are tracked alongside the
    buckets, so means are exact and quantiles are bucket-resolution
    estimates (within a factor of 2). *)

type histogram

val histogram : string -> histogram
(** Intern (or retrieve) the histogram [name]. *)

val observe : histogram -> float -> unit
(** Record one sample (typically seconds). *)

val samples : histogram -> int
(** Number of recorded samples. *)

val sum : histogram -> float
(** Sum of all recorded samples. *)

val min_value : histogram -> float
(** Smallest recorded sample ([nan] when empty). *)

val max_value : histogram -> float
(** Largest recorded sample ([nan] when empty). *)

val bucket_of : float -> int
(** The bucket index a value falls into (exposed for tests). *)

val bucket_bounds : int -> float * float
(** [bucket_bounds i] is the half-open interval [[lo, hi)] covered by
    bucket [i]; bucket 0 has [lo = neg_infinity] and bucket 63 has
    [hi = infinity]. *)

val bucket_count : histogram -> int -> int
(** Occupancy of one bucket. *)

val quantile : histogram -> float -> float
(** [quantile h q] for [q] in [[0, 1]]: a nearest-rank estimate at
    bucket resolution, clamped to the exact observed [[min, max]].
    [nan] when the histogram is empty. *)

(** {1 Spans}

    Hierarchical regions covering the query lifecycle (plan selection,
    per-round oblivious fetch, PIR server work, decode, path
    assembly).  A span's {e path} is its name prefixed by the names of
    the spans open at entry, joined with ['/'] — e.g.
    ["query/fetch_regions/pir_fetch"].  Per-path aggregates record
    call count, inclusive wall-clock and inclusive page I/O (profiling
    hook: {!add_pages} deltas), so hot phases can be attributed without
    a sampling profiler.  Spans record no allocation: a
    {!Gc.allocated_bytes} delta moves between spans when code outside
    them changes, so it does not attribute a layer.

    Mismatched exits never raise: exiting a span that is not the
    innermost force-closes the spans opened inside it, and each
    anomaly increments the ["obs.span.misnested"] counter so tests
    (and CI) can assert clean nesting. *)

type span

val enter : string -> span
(** Open a span named [name] under the currently-innermost span. *)

val exit : span -> unit
(** Close a span, recording its aggregates.  Closing twice, or closing
    while inner spans are still open, increments
    ["obs.span.misnested"] (inner spans are force-closed). *)

val with_span : string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f ()] inside a span, closing it even on
    exceptions.  Preferred over {!enter}/{!exit} pairs. *)

val add_pages : int -> unit
(** Attribute [n] physical page retrievals to every currently-open
    span (the page-I/O profiling hook; called by the PIR server at
    each page retrieval — fetch or bulk download). *)

type span_stats = {
  calls : int;  (** completed executions of this path *)
  seconds : float;  (** inclusive wall-clock total *)
  pages : int;  (** inclusive page retrievals (see {!add_pages}) *)
}

val span_stats : string -> span_stats option
(** Aggregates for one span path, if it has completed at least once. *)

val current_path : unit -> string
(** Path of the innermost open span ([""] when none are open). *)

(** {1 Registry control & export} *)

val set_clock : (unit -> float) -> unit
(** Replace the span clock (default {!Sys.time}).  Tests inject a
    deterministic counter; the bench harness injects the simulated
    cost-model clock it already maintains. *)

val reset : unit -> unit
(** Zero every registered instrument in place (handles held by other
    modules stay valid), drop span aggregates and abandon any open
    spans.  Used between bench experiments and by tests. *)

val shape : unit -> string
(** Canonical, deterministic rendering of the metric {e shape}: one
    sorted line per instrument carrying only publicly-derivable
    fields — counter values, histogram sample counts, span call and
    page counts, gauge and histogram names.  Durations and gauge
    values are deliberately omitted (they vary with
    machine noise, never with the plan).  Two same-plan queries must
    produce equal shapes; see the module preamble. *)

val to_json : unit -> Json.t
(** Full snapshot (including durations) as JSON, for
    [BENCH_*.json] artifacts and [pspc --metrics]. *)

val pp : Format.formatter -> unit -> unit
(** Human-readable report (the [pspc query --metrics] output). *)
