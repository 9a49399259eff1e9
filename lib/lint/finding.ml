type rule =
  | Secret_branch
  | Secret_length
  | Effectful_call
  | Secret_exception
  | Secret_telemetry
  | Secret_alloc
  | Secret_loop
  | Secret_compare
  | Missing_justification
  | Unanalyzed_module
  | Foreign_primitive
  | Baseline_drift

let rule_slug = function
  | Secret_branch -> "secret-branch"
  | Secret_length -> "secret-length"
  | Effectful_call -> "effectful-call"
  | Secret_exception -> "secret-exception"
  | Secret_telemetry -> "secret-telemetry"
  | Secret_alloc -> "secret-alloc"
  | Secret_loop -> "secret-loop"
  | Secret_compare -> "secret-compare"
  | Missing_justification -> "missing-justification"
  | Unanalyzed_module -> "unanalyzed-module"
  | Foreign_primitive -> "foreign-primitive"
  | Baseline_drift -> "baseline-drift"

let all_rules =
  [ Secret_branch; Secret_length; Effectful_call; Secret_exception; Secret_telemetry;
    Secret_alloc; Secret_loop; Secret_compare; Missing_justification;
    Unanalyzed_module; Foreign_primitive; Baseline_drift ]

let rule_help = function
  | Secret_branch -> "if/match/while guard or for bound steered by secret-derived data"
  | Secret_length -> "secret-dependent allocation size or variable-width encoding"
  | Effectful_call -> "oblivious code calling an ambient-effect function"
  | Secret_exception -> "secret-derived data embedded in an abort/exception payload"
  | Secret_telemetry ->
      "secret-derived data recorded through an Obs telemetry sink, or a metric \
       update under secret-dependent control flow"
  | Secret_alloc ->
      "heap allocation under secret-dependent control flow (allocation volume is \
       exported in profiles)"
  | Secret_loop -> "loop trip count (iterator over a container) depends on secrets"
  | Secret_compare ->
      "polymorphic compare, physical equality or Hashtbl.hash applied to a \
       non-immediate secret value (variable-time structural walk)"
  | Missing_justification -> "[@leak_ok] without a non-empty reason string"
  | Unanalyzed_module ->
      "module reachable from an [@@oblivious] entrypoint was not part of the \
       analyzed surface"
  | Foreign_primitive ->
      "external (foreign code the analysis cannot see) declared without a \
       [@@leak_ok] justification"
  | Baseline_drift ->
      "justified-site count diverged from the checked-in lint baseline"

(* One step of an interprocedural trace: either a call site or the final
   sink.  [fr_note] is a short taint-free description ("calls X", or the
   sink phrase). *)
type frame = { fr_func : string; fr_file : string; fr_line : int; fr_col : int; fr_note : string }

type t = {
  file : string;
  line : int;
  col : int;
  rule : rule;
  func : string; (* enclosing [@@oblivious] binding *)
  message : string;
  chain : frame list; (* non-empty for interprocedural findings *)
}

let of_location ?(chain = []) ~rule ~func ~message (loc : Location.t) =
  let p = loc.Location.loc_start in
  { file = p.Lexing.pos_fname;
    line = p.Lexing.pos_lnum;
    col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
    rule;
    func;
    message;
    chain }

let frame_of_location ~func ~note (loc : Location.t) =
  let p = loc.Location.loc_start in
  { fr_func = func;
    fr_file = p.Lexing.pos_fname;
    fr_line = p.Lexing.pos_lnum;
    fr_col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
    fr_note = note }

let compare a b =
  match String.compare a.file b.file with
  | 0 -> (
      match Int.compare a.line b.line with
      | 0 -> (
          match Int.compare a.col b.col with
          | 0 -> Stdlib.compare (rule_slug a.rule) (rule_slug b.rule)
          | c -> c)
      | c -> c)
  | c -> c

(* Line numbers drift with every edit, so the baseline matches findings on
   everything *except* position inside the file. *)
let fingerprint t =
  String.concat "|" [ rule_slug t.rule; t.file; t.func; t.message ]

let pp_chain ppf chain =
  List.iter
    (fun f ->
      Format.fprintf ppf "@,    %s (%s:%d): %s" f.fr_func f.fr_file f.fr_line f.fr_note)
    chain

let pp ppf t =
  Format.fprintf ppf "@[<v>%s:%d:%d: [%s] in %s: %s%a@]" t.file t.line t.col
    (rule_slug t.rule) t.func t.message pp_chain t.chain

(* One audit entry per [@@oblivious] binding: what the analyzer saw. *)
type audit = {
  a_file : string;
  a_line : int;
  a_func : string;
  secrets : string list; (* [@secret] sources in scope *)
  justified : int; (* findings silenced by a justified [@leak_ok] *)
  flagged : int; (* findings actually reported *)
}

let pp_audit ppf a =
  Format.fprintf ppf "%s:%d: %s  secrets=[%s]  justified=%d  flagged=%d" a.a_file a.a_line
    a.a_func
    (String.concat ", " a.secrets)
    a.justified a.flagged
