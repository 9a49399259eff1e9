(* The fault-injection framework and the oblivious retry/recovery path:
   deterministic failpoint schedules, client-side recovery, graceful
   degradation, and the headline invariant — under any fixed fault
   schedule, distinct queries still produce equal adversary traces
   (indistinguishability survives failure handling). *)

module F = Psp_fault.Fault
module DB = Psp_index.Database
module PF = Psp_storage.Page_file
module Server = Psp_pir.Server
module Session = Psp_pir.Server.Session
open Psp_core

let key = Psp_crypto.Sha256.digest_string "fault tests"
let cost = Psp_pir.Cost_model.ibm4764
let page_size = 256

let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let network ?(nodes = 200) ?(seed = 11) () =
  Psp_netgen.Synthetic.generate
    { Psp_netgen.Synthetic.nodes;
      edges = nodes + (nodes / 8);
      width = 1000.0;
      height = 1000.0;
      seed }

let g = network ()
let queries = Psp_netgen.Synthetic.random_queries g ~count:8 ~seed:5

let databases =
  lazy
    [ ("CI", DB.build_ci ~page_size g);
      ("PI", DB.build_pi ~page_size g);
      ("HY", DB.build_hy ~threshold:5 ~page_size g);
      ("PI*", DB.build_pi_star ~cluster:2 ~page_size g) ]

let server_of db = Server.create ~cost ~key (DB.files db)

(* arm a schedule, run, and always disarm afterwards *)
let with_faults arms f =
  List.iter (fun (name, sched) -> F.arm name sched) arms;
  Fun.protect ~finally:F.reset f

let close_cost got truth = Float.abs (got -. truth) <= 1e-3 *. Float.max 1.0 truth

let check_correct name (r : Client.result) s t =
  let truth = Psp_graph.Dijkstra.distance g s t in
  match r.Client.path with
  | None -> Alcotest.fail (Printf.sprintf "%s: no path %d->%d" name s t)
  | Some (_, got) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d->%d correct under faults" name s t)
        true (close_cost got truth)

(* ------------------------------------------------------------------ *)
(* Framework *)

let test_schedules () =
  F.reset ();
  F.arm "p.hits" (F.Hits [ 2; 4 ]);
  let fired = List.init 5 (fun _ -> F.fires "p.hits") in
  Alcotest.(check (list bool)) "hits schedule" [ false; true; false; true; false ] fired;
  Alcotest.(check int) "hit count" 5 (F.hits "p.hits");
  Alcotest.(check int) "fired count" 2 (F.fired "p.hits");
  F.arm "p.first" (F.First 2);
  let fired = List.init 4 (fun _ -> F.fires "p.first") in
  Alcotest.(check (list bool)) "first schedule" [ true; true; false; false ] fired;
  F.arm "p.never" F.Never;
  Alcotest.(check bool) "never" false (F.fires "p.never");
  F.arm "p.always" F.Always;
  Alcotest.(check bool) "always" true (F.fires "p.always");
  Alcotest.(check bool) "unarmed point never fires" false (F.fires "p.unknown");
  Alcotest.(check int) "unarmed point counts nothing" 0 (F.hits "p.unknown");
  F.reset ();
  Alcotest.(check bool) "reset disarms" false (F.active ())

let test_rewind_replays_probability () =
  F.reset ();
  F.arm ~seed:99 "p.prob" (F.Probability 0.3);
  let run () = List.init 200 (fun _ -> F.fires "p.prob") in
  let first = run () in
  F.rewind ();
  let second = run () in
  Alcotest.(check (list bool)) "same seed, same decisions" first second;
  Alcotest.(check bool) "some fired" true (List.mem true first);
  Alcotest.(check bool) "some passed" true (List.mem false first);
  F.reset ()

let test_spec_parsing () =
  F.reset ();
  List.iter
    (fun spec ->
      match F.parse_spec spec with
      | Ok (name, schedule) -> F.arm name schedule
      | Error e -> Alcotest.fail (Printf.sprintf "spec %S rejected: %s" spec e))
    [ "a=never"; "b=always"; "c=first:3"; "d=hits:1,4,9"; "e=p:0.25" ];
  Alcotest.(check bool) "armed" true (F.active ());
  List.iter
    (fun spec ->
      match F.parse_spec spec with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "spec %S accepted" spec))
    [ "nosep"; "=always"; "x=unknown"; "x=first:-1"; "x=hits:0"; "x=p:1.5"; "x=p:zz" ];
  F.reset ()

(* ------------------------------------------------------------------ *)
(* Recovery *)

let test_survives_transient_faults () =
  (* acceptance: >= 3 injected transient fetch faults, correct answer *)
  let db = List.assoc "CI" (Lazy.force databases) in
  let server = server_of db in
  let s, t = queries.(0) in
  with_faults [ ("pir.fetch.transient", F.Hits [ 2; 5; 9 ]) ] (fun () ->
      let r = Client.query_nodes server g s t in
      check_correct "CI" r s t;
      Alcotest.(check int) "three retries" 3 r.Client.stats.Session.retries;
      match r.Client.status with
      | Client.Degraded { retries } -> Alcotest.(check int) "degraded retries" 3 retries
      | _ -> Alcotest.fail "expected Degraded status")

let test_corrupt_page_detected_and_recovered () =
  let db = List.assoc "PI" (Lazy.force databases) in
  let server = server_of db in
  let s, t = queries.(1) in
  with_faults [ ("pir.fetch.corrupt", F.Hits [ 3 ]) ] (fun () ->
      let r = Client.query_nodes server g s t in
      check_correct "PI" r s t;
      Alcotest.(check int) "one retry" 1 r.Client.stats.Session.retries;
      Alcotest.(check int) "corruption fired once" 1 (F.fired "pir.fetch.corrupt"))

let test_download_fault_recovered () =
  let db = List.assoc "CI" (Lazy.force databases) in
  let server = server_of db in
  let s, t = queries.(2) in
  with_faults [ ("pir.download.transient", F.Hits [ 1 ]) ] (fun () ->
      let r = Client.query_nodes server g s t in
      check_correct "CI" r s t;
      Alcotest.(check int) "one retry" 1 r.Client.stats.Session.retries)

let test_exhaustion_degrades_gracefully () =
  let db = List.assoc "CI" (Lazy.force databases) in
  let server = server_of db in
  let s, t = queries.(3) in
  with_faults [ ("pir.fetch.transient", F.Always) ] (fun () ->
      let retry = { Client.max_attempts = 3; base_backoff = 0.1 } in
      let r = Client.query_nodes ~retry server g s t in
      (match r.Client.status with
      | Client.Unavailable { point; attempts } ->
          Alcotest.(check string) "failing point" "pir.fetch.transient" point;
          Alcotest.(check int) "budget honoured" 3 attempts
      | _ -> Alcotest.fail "expected Unavailable status");
      Alcotest.(check bool) "no path" true (r.Client.path = None);
      Alcotest.(check int) "two retries per attempt cycle" 2 r.Client.stats.Session.retries;
      Alcotest.(check bool) "backoff charged" true
        (r.Client.stats.Session.recovery_seconds > 0.0))

let test_backoff_is_deterministic_and_query_independent () =
  let db = List.assoc "PI" (Lazy.force databases) in
  let server = server_of db in
  let arms = [ ("pir.fetch.transient", F.Hits [ 2; 6 ]) ] in
  let run (s, t) =
    with_faults arms (fun () ->
        let r = Client.query_nodes server g s t in
        ( r.Client.stats.Session.retries,
          r.Client.stats.Session.recovery_seconds,
          r.Client.stats.Session.comm_seconds ))
  in
  let r0 = run queries.(0) and r1 = run queries.(4) in
  Alcotest.(check bool) "distinct queries, identical recovery schedule" true (r0 = r1)

let test_retry_through_real_oram () =
  (* recovery also works when pages come from the pyramid ORAM *)
  let small = network ~nodes:100 ~seed:3 () in
  let db = DB.build_ci ~page_size small in
  let server = Server.create ~mode:`Pyramid ~cost ~key (DB.files db) in
  let s, t = (Psp_netgen.Synthetic.random_queries small ~count:1 ~seed:8).(0) in
  with_faults
    [ ("pir.fetch.transient", F.Hits [ 2 ]); ("pir.fetch.corrupt", F.Hits [ 5 ]) ]
    (fun () ->
      let r = Client.query_nodes server small s t in
      let truth = Psp_graph.Dijkstra.distance small s t in
      (match r.Client.path with
      | Some (_, got) ->
          Alcotest.(check bool) "oram + faults correct" true (close_cost got truth)
      | None -> Alcotest.fail "no path through faulted ORAM");
      Alcotest.(check int) "two retries" 2 r.Client.stats.Session.retries)

(* ------------------------------------------------------------------ *)
(* The headline invariant *)

let fingerprint (r : Client.result) =
  Psp_pir.Trace.fingerprint r.Client.stats.Session.trace

let test_no_faults_no_drift () =
  (* with injection disabled the trace must be byte-identical to the
     fault-free execution, whether the registry is empty or armed with
     an inert schedule *)
  let db = List.assoc "CI" (Lazy.force databases) in
  let server = server_of db in
  let s, t = queries.(5) in
  F.reset ();
  let baseline = Client.query_nodes server g s t in
  Alcotest.(check bool) "served" true (baseline.Client.status = Client.Served);
  let inert =
    with_faults
      [ ("pir.fetch.transient", F.Never); ("pir.fetch.corrupt", F.Hits []) ]
      (fun () -> Client.query_nodes server g s t)
  in
  Alcotest.(check string) "inert schedule, identical view" (fingerprint baseline)
    (fingerprint inert);
  Alcotest.(check int) "no retries" 0 inert.Client.stats.Session.retries;
  let after_reset = Client.query_nodes server g s t in
  Alcotest.(check string) "after reset, identical view" (fingerprint baseline)
    (fingerprint after_reset)

(* satellite invariant: across CI, PI, HY and PI*, a shared fault
   schedule that forces retries leaves distinct (source, destination)
   pairs indistinguishable *)
let test_indistinguishable_under_failure () =
  let arms =
    [ ("pir.fetch.transient", F.Hits [ 2; 5 ]); ("pir.fetch.corrupt", F.Hits [ 7 ]) ]
  in
  List.iter
    (fun (name, db) ->
      let server = server_of db in
      let results =
        with_faults arms (fun () ->
            Array.to_list
              (Array.map
                 (fun (s, t) ->
                   (* the schedule replays from the top for every query *)
                   F.rewind ();
                   let r = Client.query_nodes server g s t in
                   check_correct name r s t;
                   r)
                 queries))
      in
      let traces = List.map (fun (r : Client.result) -> r.Client.stats.Session.trace) results in
      (match Privacy.indistinguishable traces with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Printf.sprintf "%s under faults: %s" name e));
      List.iter
        (fun (r : Client.result) ->
          Alcotest.(check int)
            (name ^ ": every query recovered the same way")
            3 r.Client.stats.Session.retries)
        results)
    (Lazy.force databases)

(* deterministic 32-seed sweep of the same invariant: each seed derives
   a fault schedule (transient / corrupt / tamper ordinals) and a fresh
   query pair, cycling through the schemes — every pair must leave
   byte-identical traces when the schedule replays per query *)
let test_seed_sweep () =
  let dbs = Lazy.force databases in
  for seed = 0 to 31 do
    let rng = Psp_util.Rng.create (0xfa017 + seed) in
    let pick n = 1 + Psp_util.Rng.int rng n in
    let arms =
      List.filteri
        (fun i _ -> i = seed mod 3 || Psp_util.Rng.int rng 2 = 0)
        [ ("pir.fetch.transient", F.Hits [ pick 8; 8 + pick 8 ]);
          ("pir.fetch.corrupt", F.Hits [ pick 12 ]);
          ("pir.fetch.tamper", F.Hits [ pick 12 ]) ]
    in
    let name, db = List.nth dbs (seed mod List.length dbs) in
    let qs = Psp_netgen.Synthetic.random_queries g ~count:2 ~seed in
    let run (s, t) =
      with_faults arms (fun () ->
          F.rewind ();
          (* tampering aborts the plan ([Replica_failed]: single-server
             recovery cannot trust the host again) — the abandoned
             trace prefix must still be query-independent *)
          match Client.query_nodes (server_of db) g s t with
          | r -> fingerprint r
          | exception Client.Replica_failed { reason; stats; _ } ->
              reason ^ "|" ^ Psp_pir.Trace.fingerprint stats.(0).Session.trace)
    in
    Alcotest.(check string)
      (Printf.sprintf "seed %d (%s): distinct queries, equal traces" seed name)
      (run qs.(0)) (run qs.(1))
  done

(* the same invariant as a property: random query pairs and random fault
   ordinals, every scheme — traces stay equal whenever the schedule is
   replayed per query *)
let indistinguishability_property =
  qtest ~count:12 "random fault schedule: distinct queries, equal traces"
    QCheck2.Gen.(
      let* scheme = int_range 0 3 in
      let* seed = int_range 0 9999 in
      let* ordinals = list_size (int_range 1 3) (int_range 1 12) in
      return (scheme, seed, ordinals))
    (fun (scheme, seed, ordinals) ->
      let name, db = List.nth (Lazy.force databases) scheme in
      ignore name;
      let server = server_of db in
      let qs = Psp_netgen.Synthetic.random_queries g ~count:2 ~seed in
      let traces =
        with_faults
          [ ("pir.fetch.transient", F.Hits ordinals) ]
          (fun () ->
            Array.to_list
              (Array.map
                 (fun (s, t) ->
                   F.rewind ();
                   (Client.query_nodes server g s t).Client.stats.Session.trace)
                 qs))
      in
      Privacy.indistinguishable traces = Ok ())

let () =
  Alcotest.run "fault"
    [ ( "framework",
        [ Alcotest.test_case "schedules" `Quick test_schedules;
          Alcotest.test_case "rewind replays probability" `Quick
            test_rewind_replays_probability;
          Alcotest.test_case "spec parsing" `Quick test_spec_parsing ] );
      ( "recovery",
        [ Alcotest.test_case "survives 3 transient faults" `Quick
            test_survives_transient_faults;
          Alcotest.test_case "corrupt page detected" `Quick
            test_corrupt_page_detected_and_recovered;
          Alcotest.test_case "download fault" `Quick test_download_fault_recovered;
          Alcotest.test_case "graceful exhaustion" `Quick
            test_exhaustion_degrades_gracefully;
          Alcotest.test_case "deterministic backoff" `Quick
            test_backoff_is_deterministic_and_query_independent;
          Alcotest.test_case "retry through real oram" `Slow test_retry_through_real_oram ] );
      ( "indistinguishability",
        [ Alcotest.test_case "no faults, no drift" `Quick test_no_faults_no_drift;
          Alcotest.test_case "equal traces under shared schedule" `Slow
            test_indistinguishable_under_failure;
          Alcotest.test_case "32-seed schedule sweep" `Slow test_seed_sweep;
          indistinguishability_property ] ) ]
