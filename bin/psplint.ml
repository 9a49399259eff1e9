(* psplint — static obliviousness & leakage linter for the PIR hot path.

   Usage: psplint [--quiet] [--audit] [--sarif FILE] [--baseline FILE]
                  [--write-baseline FILE] PATH...

   PATHs are .cmt files or directories searched recursively, relative to
   the working directory (dune emits .cmt next to the objects, so
   _build/default/lib covers every library).  Every .cmt found is
   indexed into one call graph, interprocedural summaries are iterated
   to a fixpoint, and cross-module flows are reported with full call
   chains; modules reachable from the oblivious surface but never
   loaded are flagged (unanalyzed-module).

   Exit status: 0 clean, 1 findings, 2 bad input (including a PATH with
   no .cmt under it). *)

let () =
  let quiet = ref false and audit = ref false and paths = ref [] in
  let sarif = ref "" in
  let baseline = ref "" in
  let write_baseline = ref "" in
  let spec =
    [ ("--quiet", Arg.Set quiet, " Print only the summary line");
      ("--audit", Arg.Set audit, " List every [@@oblivious] function audited");
      ("--sarif", Arg.Set_string sarif, "FILE Write a SARIF 2.1.0 report to FILE");
      ( "--baseline",
        Arg.Set_string baseline,
        "FILE Suppress findings accepted in FILE; report drift" );
      ( "--write-baseline",
        Arg.Set_string write_baseline,
        "FILE Regenerate FILE from the current findings and exit 0" ) ]
  in
  let usage =
    "psplint [--quiet] [--audit] [--sarif FILE] [--baseline FILE] [--write-baseline \
     FILE] PATH..."
  in
  Arg.parse (Arg.align spec) (fun p -> paths := p :: !paths) usage;
  let opt r = if !r = "" then None else Some !r in
  exit
    (Psp_lint.Lint.main ?sarif:(opt sarif) ?baseline:(opt baseline)
       ?write_baseline:(opt write_baseline) ~paths:(List.rev !paths) ~quiet:!quiet
       ~audit:!audit ())
