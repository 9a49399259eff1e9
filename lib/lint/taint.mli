(** Taint-based obliviousness analysis over the typedtree.

    [analyze_fn] checks one indexed [\@\@oblivious] function: it seeds
    taint at patterns marked [\@secret] and returns the findings together
    with the function's audit record.  See DESIGN.md §4 for the rule set
    and annotation conventions.

    The analysis consults an {!env} of interprocedural {!summary} values
    (computed by [Summary] to a whole-program fixpoint): a tainted
    argument whose summary reaches an observable sink becomes a finding
    at the call site, carrying the cross-module call chain. *)

(** {2 Interprocedural summaries} *)

type sink = {
  sk_param : int;  (** -1: ambient — reached regardless of the arguments *)
  sk_rule : Finding.rule;
  sk_short : string;  (** taint-free phrase describing the sink *)
  sk_chain : Finding.frame list;  (** call path from the callee to the sink *)
}

type summary = {
  sum_name : string;  (** canonical fq name *)
  sum_arity : int;  (** peeled leading parameters *)
  sum_ret_params : int list;  (** params flowing into the return value *)
  sum_sinks : sink list;
  sum_mutations : (int * int list) list;  (** param [i] absorbs params [js] *)
}

type env = {
  lookup : current:string -> string -> summary option;
  ty_abbrev : current:string -> string -> Types.type_expr option;
      (** type-abbreviation manifests (see [Callgraph.abbrev]), consulted
          by the [secret-compare] immediate-type exemption so aliases of
          immediates ([type id = int]) are not flagged *)
}

val summarize : env:env -> Callgraph.fn -> summary
(** Seed every leading parameter with a token, run the analysis, and read
    off return flows, parameter-to-sink flows (with chains), ambient
    effects and parameter-mutation flows. *)

val summary_shape : summary -> int list * (int * Finding.rule) list * (int * int list) list
(** Convergence measure for the interprocedural fixpoint: which flows
    exist, ignoring chains and wording. *)

(** {2 Entry points} *)

val analyze_fn : env:env -> Callgraph.fn -> Finding.t list * Finding.audit
(** Analyze one indexed function under its fully qualified name with an
    interprocedural environment. *)

val analyze_external : Callgraph.ext -> Finding.t list * Finding.audit
(** The [foreign-primitive] rule: an [external] without a justified
    [\@\@leak_ok] is a finding (an empty reason is also a
    [missing-justification]); a justified one is one justified site in
    its audit record. *)

(** {2 Callee classification — exposed for unit tests} *)

val normalize : (string * string) list -> string -> string
(** [normalize aliases name] expands a leading module alias and strips the
    [Stdlib.] prefix, e.g. [normalize ["W", "Psp_util.Byte_io.Writer"]
    "W.varint" = "Psp_util.Byte_io.Writer.varint"]. *)

val denylisted : string -> bool
(** Ambient-effect functions oblivious code must not call. *)

val length_sensitive : string -> int option
(** [Some i] when argument [i] of the named function determines an
    allocation or encoding length. *)

val mutator : string -> int option
(** [Some i] when the named function mutates its [i]-th argument with the
    other arguments' data (container writes propagate taint). *)

val telemetry : string -> int list option
(** [Some idxs] when the named function is a [lib/obs] telemetry sink;
    [idxs] are the recorded-payload arguments (instrument names and
    recorded values).  A tainted payload — or any sink call made under
    secret-dependent control flow — is a [secret-telemetry] finding. *)

val iterator : string -> int option
(** [Some i] when argument [i] of the named function is a container whose
    length determines the trip count (the [secret-loop] rule). *)

val compare_like : string -> bool
(** Polymorphic compare / physical equality / [Hashtbl.hash] — the
    [secret-compare] rule, modulo the immediate-type exemption. *)
