(** Findings reported by the static obliviousness linter. *)

type rule =
  | Secret_branch  (** if/match/while/for steered by secret-derived data *)
  | Secret_length  (** secret-dependent allocation or encoding length *)
  | Effectful_call  (** oblivious code calling an ambient-effect function *)
  | Secret_exception  (** secret-derived data embedded in an abort/exception *)
  | Secret_telemetry
      (** secret-derived data recorded through an [Obs] metric/span sink,
          or a metric update made under secret-dependent control flow *)
  | Secret_alloc
      (** heap allocation under secret-dependent control flow — allocation
          words are exported in profiles, so the arm taken leaks *)
  | Secret_loop
      (** iterator applied to a container whose taint (hence length) is
          secret-derived: the trip count leaks beyond the length rule *)
  | Secret_compare
      (** polymorphic compare, physical equality or [Hashtbl.hash] on a
          non-immediate secret value: the structural walk is variable-time *)
  | Missing_justification  (** [\@leak_ok] without a non-empty reason string *)
  | Unanalyzed_module
      (** a module reachable from an [\@\@oblivious] entrypoint was never
          loaded into the whole-program analysis surface *)
  | Foreign_primitive
      (** an [external] in the whole-program surface without a
          [\@\@leak_ok] justification: its foreign code is invisible to
          the analysis, so every call into it would pass as clean *)
  | Baseline_drift
      (** justified-site counts no longer match [lint-baseline.json] *)

val rule_slug : rule -> string
val rule_help : rule -> string
val all_rules : rule list

(** One step of an interprocedural trace (rendered as a SARIF code flow). *)
type frame = { fr_func : string; fr_file : string; fr_line : int; fr_col : int; fr_note : string }

type t = {
  file : string;
  line : int;
  col : int;
  rule : rule;
  func : string;
  message : string;
  chain : frame list;  (** call path to the sink; [[]] for intraprocedural *)
}

val of_location :
  ?chain:frame list -> rule:rule -> func:string -> message:string -> Location.t -> t

val frame_of_location : func:string -> note:string -> Location.t -> frame
val compare : t -> t -> int

val fingerprint : t -> string
(** Position-independent identity used by the baseline: rule, file,
    enclosing function and message — never the line number. *)

val pp : Format.formatter -> t -> unit

type audit = {
  a_file : string;
  a_line : int;
  a_func : string;
  secrets : string list;
  justified : int;
  flagged : int;
}

val pp_audit : Format.formatter -> audit -> unit
