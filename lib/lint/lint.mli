(** Linter driver: load [.cmt] files, analyze, report. *)

type report = {
  findings : Finding.t list;
  audits : Finding.audit list;  (** one per [\@\@oblivious] binding *)
  foreign : Finding.audit list;
      (** one per [external] in the surface (whole-program mode only):
          [justified = 1] when it carries a justified [\@\@leak_ok] *)
  errors : string list;
  modules : int;
}

val analyze_cmt : string -> report
(** Analyze one [.cmt] file in per-module mode (no interprocedural
    environment).  Unreadable files land in [errors]; interface and pack
    artifacts yield an empty report. *)

val run : string list -> report
(** Per-module mode over every [.cmt] under the given files or
    directories. *)

val run_program : root:string -> string list -> report
(** Whole-program mode: index every [.cmt] under [root]-relative [paths]
    into one call graph, compute interprocedural summaries to a
    fixpoint, analyze each [\@\@oblivious] entrypoint with cross-module
    chains, and flag project modules reachable from the oblivious
    surface that were never loaded ([unanalyzed-module]).  Every
    [external] must carry a justified [\@\@leak_ok]
    ([foreign-primitive]). *)

val print_report : quiet:bool -> audit:bool -> report -> unit
val exit_code : report -> int
(** [0] clean, [1] findings, [2] input errors. *)

val main :
  ?root:string ->
  ?sarif:string ->
  ?baseline:string ->
  ?write_baseline:string ->
  paths:string list ->
  quiet:bool ->
  audit:bool ->
  unit ->
  int
(** Full CLI behaviour: run (whole-program when [root] is given),
    optionally write a SARIF report and/or regenerate the baseline,
    apply the baseline filter, print, and return the exit code
    ([--write-baseline] returns 0 unless there were input errors). *)
