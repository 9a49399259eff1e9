(* psplint: unit tests for callee classification and taint plumbing, plus
   end-to-end runs over the compiled fixtures in test/fixtures/.

   The fixture sources carry [(* EXPECT: rule-slug *)] markers on the
   exact line a finding must be reported; the expectations are re-read
   from the source at test time, so fixture edits cannot silently drift
   out of sync with the assertions. *)

module Lint = Psp_lint.Lint
module Taint = Psp_lint.Taint
module Finding = Psp_lint.Finding
module Baseline = Psp_lint.Baseline
module Sarif = Psp_lint.Sarif

(* Paths are relative to the test runner's cwd, [_build/default/test]. *)
let fixture_src name = Filename.concat "fixtures" (name ^ ".ml")

let fixture_cmt name =
  Filename.concat "fixtures/.psp_lint_fixtures.objs/byte"
    ("psp_lint_fixtures__" ^ String.capitalize_ascii name ^ ".cmt")

let lib_cmt lib m =
  Printf.sprintf "../lib/%s/.psp_%s.objs/byte/psp_%s__%s.cmt" lib lib lib m

(* ------------------------------------------------------------------ *)
(* Unit: name normalization and callee tables *)

let test_normalize () =
  let aliases =
    [ ("W", "Psp_util.Byte_io.Writer");
      ("Session", "Psp_pir.Server.Session");
      ("S2", "Session") ]
  in
  Alcotest.(check string)
    "alias expanded" "Psp_util.Byte_io.Writer.varint"
    (Taint.normalize aliases "W.varint");
  Alcotest.(check string)
    "chained alias" "Psp_pir.Server.Session.fetch"
    (Taint.normalize aliases "S2.fetch");
  Alcotest.(check string)
    "stdlib stripped" "Sys.time"
    (Taint.normalize [] "Stdlib.Sys.time");
  Alcotest.(check string) "bare name untouched" "foo" (Taint.normalize aliases "foo");
  Alcotest.(check string)
    "unknown module untouched" "Other.f" (Taint.normalize aliases "Other.f")

let test_denylist () =
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " denied") true (Taint.denylisted name))
    [ "Printf.printf"; "Sys.time"; "Unix.gettimeofday"; "Random.int";
      "print_string"; "exit"; "Out_channel.open_text" ];
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " allowed") false (Taint.denylisted name))
    [ "Printf.sprintf"; "Format.asprintf"; "List.iter"; "Hashtbl.replace";
      "Psp_pir.Server.Session.fetch"; "exitf" ]

let test_length_sensitive () =
  Alcotest.(check (option int)) "Bytes.create" (Some 0)
    (Taint.length_sensitive "Bytes.create");
  Alcotest.(check (option int)) "qualified varint" (Some 1)
    (Taint.length_sensitive "Psp_util.Byte_io.Writer.varint");
  Alcotest.(check (option int)) "suffix needs module boundary" None
    (Taint.length_sensitive "MyBytes.create");
  Alcotest.(check (option int)) "plain call" None (Taint.length_sensitive "List.map")

let test_telemetry () =
  Alcotest.(check (option (list int)))
    "Obs.add records arg 1" (Some [ 1 ]) (Taint.telemetry "Obs.add");
  Alcotest.(check (option (list int)))
    "qualified Obs.observe" (Some [ 1 ])
    (Taint.telemetry "Psp_obs.Obs.observe");
  Alcotest.(check (option (list int)))
    "Obs.incr has no payload but is still a sink" (Some [])
    (Taint.telemetry "Psp_obs.Obs.incr");
  Alcotest.(check (option (list int)))
    "span names are payloads" (Some [ 0 ]) (Taint.telemetry "Obs.with_span");
  Alcotest.(check (option (list int)))
    "suffix needs module boundary" None (Taint.telemetry "MyObs.add");
  Alcotest.(check (option (list int)))
    "unrelated call" None (Taint.telemetry "Hashtbl.add")

let test_iterator () =
  Alcotest.(check (option int)) "Array.iter walks arg 1" (Some 1)
    (Taint.iterator "Array.iter");
  Alcotest.(check (option int)) "List.fold_left walks arg 2" (Some 2)
    (Taint.iterator "List.fold_left");
  Alcotest.(check (option int)) "qualified Seq.iter" (Some 1)
    (Taint.iterator "Stdlib.Seq.iter");
  Alcotest.(check (option int)) "String.iter deliberately absent" None
    (Taint.iterator "String.iter");
  Alcotest.(check (option int)) "suffix needs module boundary" None
    (Taint.iterator "MyList.iter")

let test_compare_like () =
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " compare-like") true (Taint.compare_like name))
    [ "="; "<>"; "compare"; "=="; "!="; "Hashtbl.hash" ];
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " not compare-like") false
        (Taint.compare_like name))
    [ "String.equal"; "Int.compare"; "+" ]

let test_mutator () =
  Alcotest.(check (option int)) "Hashtbl.replace" (Some 0)
    (Taint.mutator "Hashtbl.replace");
  Alcotest.(check (option int)) "Queue.add mutates arg 1" (Some 1)
    (Taint.mutator "Queue.add");
  Alcotest.(check (option int)) "qualified Dyn_array.push" (Some 0)
    (Taint.mutator "Psp_util.Dyn_array.push");
  Alcotest.(check (option int)) "reader is not a mutator" None
    (Taint.mutator "Hashtbl.find_opt")

(* ------------------------------------------------------------------ *)
(* End-to-end: fixtures with EXPECT markers *)

let read_lines path =
  let ic = open_in path in
  let rec go acc n =
    match input_line ic with
    | line -> go ((n, line) :: acc) (n + 1)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go [] 1

(* Every [(* EXPECT: slug *)] occurrence, as a (line, slug) list. *)
let expectations path =
  let marker = "(* EXPECT: " in
  let mlen = String.length marker in
  let find_marker line pos =
    let n = String.length line in
    let rec go i =
      if i + mlen > n then None
      else if String.sub line i mlen = marker then Some i
      else go (i + 1)
    in
    go pos
  in
  List.concat_map
    (fun (n, line) ->
      let rec scan pos acc =
        match find_marker line pos with
        | None -> List.rev acc
        | Some i -> (
            let start = i + mlen in
            match String.index_from_opt line start ' ' with
            | None -> List.rev acc
            | Some stop -> scan stop ((n, String.sub line start (stop - start)) :: acc))
      in
      scan 0 [])
    (read_lines path)

let found_pairs (r : Lint.report) =
  List.map (fun (f : Finding.t) -> (f.line, Finding.rule_slug f.rule)) r.findings

let finding_pair = Alcotest.(pair int string)
let sorted = List.sort compare

let check_fixture name () =
  let r = Lint.analyze_cmt (fixture_cmt name) in
  Alcotest.(check (list string)) "no read errors" [] r.errors;
  Alcotest.(check (list finding_pair))
    (name ^ " findings match EXPECT markers")
    (sorted (expectations (fixture_src name)))
    (sorted (found_pairs r))

let test_good_audit () =
  let r = Lint.analyze_cmt (fixture_cmt "fx_good") in
  Alcotest.(check (list string)) "no read errors" [] r.errors;
  Alcotest.(check int) "nine audited functions" 9 (List.length r.audits);
  Alcotest.(check bool) "one justified site" true
    (List.exists (fun (a : Finding.audit) -> a.justified = 1) r.audits);
  (* debug_print is not [@@oblivious], so its printf must not appear *)
  Alcotest.(check (list finding_pair)) "clean" [] (found_pairs r)

let test_exit_codes () =
  Alcotest.(check int) "clean -> 0" 0
    (Lint.exit_code (Lint.analyze_cmt (fixture_cmt "fx_good")));
  Alcotest.(check int) "findings -> 1" 1
    (Lint.exit_code (Lint.analyze_cmt (fixture_cmt "fx_bad_branch")));
  Alcotest.(check int) "unreadable -> 2" 2
    (Lint.exit_code (Lint.analyze_cmt "fixtures/no_such_file.cmt"))

(* A directory entry that vanishes or dangles between [readdir] and its
   stat is skipped — the compiler writes temporary files into the
   directories a build-time lint run walks — while a missing top-level
   PATH is still bad input. *)
let test_walk_skips_vanished_entries () =
  let dir = Filename.temp_file "psplint_walk" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let cmt = Filename.concat dir "m.cmt" and link = Filename.concat dir "dangling" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ cmt; link ];
      Sys.rmdir dir)
    (fun () ->
      Out_channel.with_open_bin cmt (fun oc ->
          Out_channel.output_string oc
            (In_channel.with_open_bin (fixture_cmt "fx_good") In_channel.input_all));
      Unix.symlink (Filename.concat dir "gone") link;
      let run paths = Lint.main ~root:"." ~paths ~quiet:true ~audit:false () in
      let r = Lint.run_program ~root:"." [ dir ] in
      Alcotest.(check (list string)) "no read errors" [] r.errors;
      Alcotest.(check int) "the .cmt is still analyzed" 1 r.modules;
      Alcotest.(check int) "dangling entry skipped -> 0" 0 (run [ dir ]);
      Alcotest.(check int) "missing top-level PATH -> 2" 2
        (run [ Filename.concat dir "no_such_dir" ]))

(* ------------------------------------------------------------------ *)
(* Whole-program: cross-module flows, discovery gaps *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let interproc_cmts names = List.map fixture_cmt names

(* The secret flows fx_bad_interproc -> mid -> helper; the finding lands
   at the oblivious call site with the full three-frame chain. *)
let test_interproc_chain () =
  let r =
    Lint.run_program ~root:"."
      (interproc_cmts
         [ "fx_interproc_helper"; "fx_interproc_mid"; "fx_bad_interproc" ])
  in
  Alcotest.(check (list string)) "no read errors" [] r.errors;
  Alcotest.(check (list finding_pair))
    "findings match EXPECT markers"
    (sorted (expectations (fixture_src "fx_bad_interproc")))
    (sorted (found_pairs r));
  match r.findings with
  | [ f ] ->
      Alcotest.(check int) "three-frame chain" 3 (List.length f.Finding.chain);
      Alcotest.(check (list string))
        "chain crosses all three modules"
        [ "fx_bad_interproc.ml"; "fx_interproc_mid.ml"; "fx_interproc_helper.ml" ]
        (List.map
           (fun (fr : Finding.frame) -> Filename.basename fr.fr_file)
           f.Finding.chain)
  | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

(* fx_good must stay clean in whole-program mode too: [read_at] passes a
   secret as [at]'s optional argument, so [at]'s summary must not carry a
   sink for the compiler-generated default-select ([?(pos = 0)]), and the
   abbreviation exemption must hold with summaries applied. *)
let test_good_whole_program () =
  let r = Lint.run_program ~root:"." (interproc_cmts [ "fx_good" ]) in
  Alcotest.(check (list string)) "no read errors" [] r.errors;
  Alcotest.(check (list finding_pair)) "clean" [] (found_pairs r)

(* Without linking, the same module is vacuously clean: the flow exists
   only in the whole-program view. *)
let test_interproc_per_module_blind () =
  let r = Lint.analyze_cmt (fixture_cmt "fx_bad_interproc") in
  Alcotest.(check (list string)) "no read errors" [] r.errors;
  Alcotest.(check (list finding_pair))
    "per-module mode cannot see the cross-module flow" [] (found_pairs r)

(* Dropping the leaf from the surface turns the unresolved project call
   into a discovery-gap finding instead of silence. *)
let test_unanalyzed_module () =
  let r =
    Lint.run_program ~root:"."
      (interproc_cmts [ "fx_interproc_mid"; "fx_bad_interproc" ])
  in
  Alcotest.(check (list string)) "no read errors" [] r.errors;
  Alcotest.(check bool) "discovery gap flagged" true
    (List.exists
       (fun (f : Finding.t) ->
         Finding.rule_slug f.rule = "unanalyzed-module"
         && contains f.message "Psp_lint_fixtures.Fx_interproc_helper")
       r.findings)

(* Externals are audited in whole-program mode: one without a justified
   [@@leak_ok] (no attribute, or an empty reason) is a finding at its
   declaration, and a justified one is a justified site in its audit
   record.  Per-module mode does not look at them. *)
let test_foreign_primitive () =
  let r = Lint.run_program ~root:"." (interproc_cmts [ "fx_bad_foreign" ]) in
  Alcotest.(check (list string)) "no read errors" [] r.errors;
  Alcotest.(check (list finding_pair))
    "findings match EXPECT markers"
    (sorted (expectations (fixture_src "fx_bad_foreign")))
    (sorted (found_pairs r));
  let audit name =
    let func = "Psp_lint_fixtures.Fx_bad_foreign." ^ name in
    match List.find_opt (fun (a : Finding.audit) -> a.a_func = func) r.foreign with
    | Some a -> (a.justified, a.flagged)
    | None -> Alcotest.failf "no audit record for %s" func
  in
  let counts = Alcotest.(pair int int) in
  Alcotest.(check int) "one audit per external" 3 (List.length r.foreign);
  Alcotest.(check counts) "justified external" (1, 0) (audit "justified_blit");
  Alcotest.(check counts) "unjustified external" (0, 1) (audit "unchecked_blit");
  Alcotest.(check counts) "empty reason" (0, 1) (audit "empty_reason");
  let per_module = Lint.analyze_cmt (fixture_cmt "fx_bad_foreign") in
  Alcotest.(check (list finding_pair)) "per-module mode skips externals" []
    (found_pairs per_module)

(* A helper's metric update is charged to a caller that reaches it under
   secret control, and a scrutinee-level [@leak_ok] justifies only the
   selection: whole-program mode, where summaries carry the update. *)
let test_metric_call () =
  let r =
    Lint.run_program ~root:"."
      ("../lib/obs/.psp_obs.objs/byte/psp_obs__Obs.cmt"
      :: interproc_cmts [ "fx_bad_metric_call" ])
  in
  Alcotest.(check (list string)) "no read errors" [] r.errors;
  Alcotest.(check (list finding_pair))
    "findings match EXPECT markers"
    (sorted (expectations (fixture_src "fx_bad_metric_call")))
    (sorted (found_pairs r))

(* ------------------------------------------------------------------ *)
(* Baseline: fingerprint suppression and the drift ratchet *)

let mk_finding ?(chain = []) ~file ~line ~rule ~func message =
  { Finding.file; line; col = 0; rule; func; message; chain }

let mk_audit ~func justified =
  { Finding.a_file = "a.ml"; a_line = 1; a_func = func; secrets = [ "x" ];
    justified; flagged = 0 }

let with_baseline findings audits k =
  let tmp = Filename.temp_file "psplint_baseline" ".json" in
  Baseline.write tmp findings audits;
  let b =
    match Baseline.load tmp with
    | Ok b -> b
    | Error e -> Alcotest.failf "baseline load failed: %s" e
  in
  Fun.protect ~finally:(fun () -> Sys.remove tmp) (fun () -> k tmp b)

let test_baseline_roundtrip () =
  let f = mk_finding ~file:"a.ml" ~line:3 ~rule:Finding.Secret_branch ~func:"M.f" "m" in
  let a = mk_audit ~func:"M.f" 2 in
  with_baseline [ f ] [ a ] (fun tmp b ->
      let applied = Baseline.apply b ~baseline_file:tmp [ f ] [ a ] in
      Alcotest.(check int) "accepted finding suppressed" 1 applied.Baseline.suppressed;
      Alcotest.(check int) "nothing kept" 0 (List.length applied.Baseline.kept);
      Alcotest.(check int) "no drift" 0 (List.length applied.Baseline.drift);
      (* the fingerprint is line-free: a moved finding stays accepted *)
      let applied =
        Baseline.apply b ~baseline_file:tmp [ { f with Finding.line = 41 } ] [ a ]
      in
      Alcotest.(check int) "moved finding still suppressed" 1
        applied.Baseline.suppressed;
      (* a finding the baseline has never seen fails the run *)
      let fresh =
        mk_finding ~file:"b.ml" ~line:1 ~rule:Finding.Secret_loop ~func:"M.g" "new"
      in
      let applied = Baseline.apply b ~baseline_file:tmp [ f; fresh ] [ a ] in
      Alcotest.(check int) "fresh finding kept" 1 (List.length applied.Baseline.kept))

let test_baseline_drift () =
  let f = mk_finding ~file:"a.ml" ~line:3 ~rule:Finding.Secret_branch ~func:"M.f" "m" in
  let a = mk_audit ~func:"M.f" 2 in
  with_baseline [ f ] [ a ] (fun tmp b ->
      (* the accepted finding was fixed: its stale entry must surface *)
      let applied = Baseline.apply b ~baseline_file:tmp [] [ a ] in
      Alcotest.(check int) "stale accepted entry drifts" 1
        (List.length applied.Baseline.drift);
      (* justified-site count changed in either direction *)
      let drift_with n =
        List.length
          (Baseline.apply b ~baseline_file:tmp [ f ] [ mk_audit ~func:"M.f" n ])
            .Baseline.drift
      in
      Alcotest.(check int) "justification added drifts" 1 (drift_with 3);
      Alcotest.(check int) "justification removed drifts" 1 (drift_with 1);
      Alcotest.(check int) "matching count is quiet" 0 (drift_with 2))

(* ------------------------------------------------------------------ *)
(* SARIF: structure of the emitted log *)

let test_sarif () =
  let chain =
    [ { Finding.fr_func = "M.f"; fr_file = "a.ml"; fr_line = 3; fr_col = 2;
        fr_note = "calls M.g" };
      { Finding.fr_func = "M.g"; fr_file = "b.ml"; fr_line = 8; fr_col = 4;
        fr_note = "conditional guard" } ]
  in
  let f =
    mk_finding ~chain ~file:"a.ml" ~line:3 ~rule:Finding.Secret_branch ~func:"M.f"
      "cross-module flow"
  in
  let tmp = Filename.temp_file "psplint" ".sarif" in
  Fun.protect ~finally:(fun () -> Sys.remove tmp) (fun () ->
      Sarif.write tmp [ f ];
      let ic = open_in_bin tmp in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      List.iter
        (fun needle ->
          Alcotest.(check bool) ("log contains " ^ needle) true (contains s needle))
        [ "\"2.1.0\"";
          "sarif-2.1.0.json";
          "\"secret-branch\"";
          "\"psplint/v1\"";
          "codeFlows";
          "threadFlows";
          "conditional guard";
          "cross-module flow" ];
      (* every rule ships in the catalog, found or not *)
      List.iter
        (fun rule ->
          let id = Printf.sprintf "\"%s\"" (Finding.rule_slug rule) in
          Alcotest.(check bool) ("catalog has " ^ id) true (contains s id))
        Finding.all_rules)

(* ------------------------------------------------------------------ *)
(* End-to-end: the real oblivious core must stay clean *)

let core_cmts =
  [ lib_cmt "core" "Client";
    lib_cmt "storage" "Page_file";
    lib_cmt "pir" "Server";
    lib_cmt "pir" "Pyramid_store";
    lib_cmt "pir" "Trace";
    lib_cmt "index" "Query_plan";
    lib_cmt "index" "Encoding" ]

let test_oblivious_core_clean () =
  let r = Lint.run core_cmts in
  Alcotest.(check (list string)) "no read errors" [] r.errors;
  Alcotest.(check (list finding_pair)) "zero findings on the oblivious core" []
    (found_pairs r);
  Alcotest.(check bool) "audit is non-trivial" true (List.length r.audits >= 25)

(* The audit must actually see the secrets: a silent annotation typo
   (e.g. [@secert]) would otherwise pass as vacuously clean. *)
let test_core_secrets_seeded () =
  let r = Lint.run core_cmts in
  let audit_of name =
    match List.find_opt (fun (a : Finding.audit) -> a.a_func = name) r.audits with
    | Some a -> a
    | None -> Alcotest.failf "no audit record for %s" name
  in
  Alcotest.(check (list string))
    "client query secrets" [ "s"; "t" ] (audit_of "query_nodes").secrets;
  Alcotest.(check (list string))
    "session fetch secrets" [ "page" ] (audit_of "Session.fetch_batch").secrets;
  Alcotest.(check bool) "session fetch justifies sites" true
    ((audit_of "Session.fetch_batch").justified >= 3)

let () =
  Alcotest.run "lint"
    [ ( "tables",
        [ Alcotest.test_case "normalize" `Quick test_normalize;
          Alcotest.test_case "denylist" `Quick test_denylist;
          Alcotest.test_case "length-sensitive" `Quick test_length_sensitive;
          Alcotest.test_case "mutators" `Quick test_mutator;
          Alcotest.test_case "iterators" `Quick test_iterator;
          Alcotest.test_case "compare-like" `Quick test_compare_like;
          Alcotest.test_case "telemetry sinks" `Quick test_telemetry ] );
      ( "fixtures",
        [ Alcotest.test_case "good is clean" `Quick test_good_audit;
          Alcotest.test_case "bad branch" `Quick (check_fixture "fx_bad_branch");
          Alcotest.test_case "bad length" `Quick (check_fixture "fx_bad_length");
          Alcotest.test_case "bad call" `Quick (check_fixture "fx_bad_call");
          Alcotest.test_case "bad telemetry" `Quick (check_fixture "fx_bad_telemetry");
          Alcotest.test_case "bad alloc" `Quick (check_fixture "fx_bad_alloc");
          Alcotest.test_case "bad polyeq" `Quick (check_fixture "fx_bad_polyeq");
          Alcotest.test_case "bad loop" `Quick (check_fixture "fx_bad_loop");
          Alcotest.test_case "regression: fetch message" `Quick
            (check_fixture "fx_regression_audit");
          Alcotest.test_case "exit codes" `Quick test_exit_codes;
          Alcotest.test_case "vanished entries skipped" `Quick
            test_walk_skips_vanished_entries ] );
      ( "interproc",
        [ Alcotest.test_case "good is clean whole-program" `Quick
            test_good_whole_program;
          Alcotest.test_case "cross-module chain" `Quick test_interproc_chain;
          Alcotest.test_case "per-module is blind" `Quick
            test_interproc_per_module_blind;
          Alcotest.test_case "unanalyzed module" `Quick test_unanalyzed_module;
          Alcotest.test_case "foreign primitive" `Quick test_foreign_primitive;
          Alcotest.test_case "metric update in a callee" `Quick test_metric_call ] );
      ( "baseline",
        [ Alcotest.test_case "roundtrip" `Quick test_baseline_roundtrip;
          Alcotest.test_case "drift ratchet" `Quick test_baseline_drift ] );
      ( "sarif", [ Alcotest.test_case "log structure" `Quick test_sarif ] );
      ( "oblivious-core",
        [ Alcotest.test_case "zero findings" `Quick test_oblivious_core_clean;
          Alcotest.test_case "secrets seeded" `Quick test_core_secrets_seeded ] ) ]
