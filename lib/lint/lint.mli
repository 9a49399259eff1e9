(** Linter driver: load [.cmt] files, analyze the whole program, report. *)

type report = {
  findings : Finding.t list;
  audits : Finding.audit list;  (** one per [\@\@oblivious] binding *)
  foreign : Finding.audit list;
      (** one per [external] in the surface: [justified = 1] when it
          carries a justified [\@\@leak_ok] *)
  errors : string list;
  modules : int;
}

val run_program : string list -> report
(** Index every [.cmt] under [paths] (files or directories, resolved
    against the working directory) into one call graph, compute
    interprocedural summaries to a fixpoint, analyze each
    [\@\@oblivious] entrypoint with cross-module chains, and flag project
    modules reachable from the oblivious surface that were never loaded
    ([unanalyzed-module]).  Every [external] must carry a justified
    [\@\@leak_ok] ([foreign-primitive]).  A path that is missing, is not a
    [.cmt] file, or holds no [.cmt] lands in [errors]. *)

val exit_code : report -> int
(** [0] clean, [1] findings, [2] input errors. *)

val main :
  ?sarif:string ->
  ?baseline:string ->
  ?write_baseline:string ->
  paths:string list ->
  quiet:bool ->
  audit:bool ->
  unit ->
  int
(** Full CLI behaviour: run the analysis, optionally write a SARIF report
    and/or regenerate the baseline, apply the baseline filter, print, and
    return the exit code ([--write-baseline] returns 0 unless there were
    input errors). *)
