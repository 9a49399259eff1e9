(* The modeled pipeline timeline and the scheduler's depth, which every
   batch is placed with.  The load-bearing claims: (1) the timeline
   follows the two-resource recurrence and degenerates to the
   synchronous schedule at depth 1; (2) the depth changes ONLY the
   reported instants — per-member traces, answers, batch sequences and
   the telemetry shape are byte-identical across depths, under fault
   schedules too; (3) the overlap is worth something: at width >= 4 the
   pipelined schedule strictly beats the synchronous one on mean
   response for a back-to-back workload (the bench acceptance bar,
   pinned here). *)

module DB = Psp_index.Database
module Server = Psp_pir.Server
module Session = Psp_pir.Server.Session
module CM = Psp_pir.Cost_model
module F = Psp_fault.Fault
module Workload = Psp_netgen.Workload
module Scheduler = Psp_serve.Scheduler
module Queue = Psp_serve.Queue
module Timeline = Psp_serve.Timeline
module Obs = Psp_obs.Obs
open Psp_core

let key = Psp_crypto.Sha256.digest_string "pipeline tests"
let cost = CM.ibm4764
let page_size = 256

let g =
  Psp_netgen.Synthetic.generate
    { Psp_netgen.Synthetic.nodes = 120;
      edges = 135;
      width = 1000.0;
      height = 1000.0;
      seed = 5 }

let queries = Psp_netgen.Synthetic.random_queries g ~count:32 ~seed:9

let databases =
  lazy [ ("ci", DB.build_ci ~page_size g); ("pi", DB.build_pi ~page_size g) ]

let server_of db = Server.create ~cost ~key (DB.files db)

let tenants () =
  List.map
    (fun (name, db) -> { Scheduler.name; server = server_of db; graph = g })
    (Lazy.force databases)

let close a b = Float.abs (a -. b) < 1e-9

(* Interned up front so shape snapshots cannot differ by when a test
   first touched this counter. *)
let c_misnested = Obs.counter "obs.span.misnested"
let trace_of (r : Client.result) = Psp_pir.Trace.fingerprint r.Client.stats.Session.trace

(* ------------------------------------------------------------------ *)
(* Timeline unit tests: batches with known phase costs *)

let place_all t specs =
  List.map (fun (ready, fetch, decode) -> Timeline.place t ~ready ~fetch ~decode) specs

let test_timeline_depth2 () =
  let t = Timeline.create ~depth:2 in
  let jobs = place_all t [ (0.0, 10.0, 4.0); (0.0, 10.0, 4.0); (0.0, 10.0, 4.0) ] in
  Timeline.finish t;
  match jobs with
  | [ j0; j1; j2 ] ->
      (* s_i = max(ready, e_(i-1), c_(i-2)); e = s + F; c = e + D *)
      List.iter
        (fun (label, got, want) ->
          Alcotest.(check bool) label true (close got want))
        [ ("s0", j0.Timeline.started, 0.0);
          ("e0", j0.Timeline.fetch_end, 10.0);
          ("c0", j0.Timeline.completed, 14.0);
          ("s1 = e0 (server serial)", j1.Timeline.started, 10.0);
          ("c1", j1.Timeline.completed, 24.0);
          ("s2 = max(e1, c0)", j2.Timeline.started, 20.0);
          ("c2", j2.Timeline.completed, 34.0);
          (* job1's fetch [10,20] covers job0's decode [10,14] entirely *)
          ("overlap0", j0.Timeline.overlap, 4.0);
          ("overlap1", j1.Timeline.overlap, 4.0);
          ("overlap2 (nothing behind it)", j2.Timeline.overlap, 0.0);
          ("makespan", Timeline.makespan t, 34.0) ]
  | _ -> assert false

let test_timeline_depth1_is_synchronous () =
  let t = Timeline.create ~depth:1 in
  let jobs = place_all t [ (0.0, 10.0, 4.0); (0.0, 10.0, 4.0); (0.0, 10.0, 4.0) ] in
  Timeline.finish t;
  List.iteri
    (fun i (j : Timeline.job) ->
      Alcotest.(check bool)
        (Printf.sprintf "s%d = i * (F + D)" i)
        true
        (close j.Timeline.started (float_of_int i *. 14.0));
      Alcotest.(check bool) "no overlap at depth 1" true (close j.Timeline.overlap 0.0))
    jobs

let test_ready_and_window_gates () =
  (match Timeline.create ~depth:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "depth 0 must be rejected");
  let t = Timeline.create ~depth:2 in
  (* late arrival: the server idles until ready *)
  let j0 = Timeline.place t ~ready:5.0 ~fetch:2.0 ~decode:100.0 in
  let j1 = Timeline.place t ~ready:5.0 ~fetch:2.0 ~decode:1.0 in
  (* window gate: job2 may not start before c0 = 107 even though the
     server is free at e1 = 9 *)
  let j2 = Timeline.place t ~ready:5.0 ~fetch:2.0 ~decode:1.0 in
  Timeline.finish t;
  Alcotest.(check bool) "s0 waits for ready" true (close j0.Timeline.started 5.0);
  Alcotest.(check bool) "s1 = e0" true (close j1.Timeline.started 7.0);
  Alcotest.(check bool) "s2 gated by c0" true
    (close j2.Timeline.started j0.Timeline.completed)

(* ------------------------------------------------------------------ *)
(* Cost model: the decode phase and the overlap estimate *)

let test_cost_model_decode () =
  Alcotest.(check bool) "decode_seconds = bytes / rate" true
    (close (CM.decode_seconds cost ~bytes:200_000) (200_000.0 /. cost.CM.client_decode_rate));
  Alcotest.(check bool) "zero bytes" true (close (CM.decode_seconds cost ~bytes:0) 0.0);
  (match CM.decode_seconds cost ~bytes:(-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative bytes must be rejected");
  Alcotest.(check bool) "depth 1 = fetch + decode" true
    (close (CM.pipelined_response_seconds ~fetch:10.0 ~decode:4.0 ~depth:1) 14.0);
  Alcotest.(check bool) "deep pipeline floors at the fetch bound" true
    (close (CM.pipelined_response_seconds ~fetch:10.0 ~decode:4.0 ~depth:1000) 10.0);
  Alcotest.(check bool) "depth 2" true
    (close (CM.pipelined_response_seconds ~fetch:10.0 ~decode:4.0 ~depth:2) 10.0);
  Alcotest.(check bool) "decode-bound depth 2" true
    (close (CM.pipelined_response_seconds ~fetch:2.0 ~decode:10.0 ~depth:2) 6.0);
  (match CM.pipelined_response_seconds ~fetch:1.0 ~decode:1.0 ~depth:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "depth 0 must be rejected")

let test_response_time_decode () =
  let t = Response_time.with_decode ~seconds:2.5 Response_time.zero in
  Alcotest.(check bool) "decode component counted in total" true
    (close (Response_time.total t) 2.5);
  Alcotest.(check bool) "add sums decode" true
    (close (Response_time.add t t).Response_time.decode_seconds 5.0);
  Alcotest.(check bool) "scale scales decode" true
    (close (Response_time.scale 2.0 t).Response_time.decode_seconds 5.0);
  (match Response_time.with_decode ~seconds:(-1.0) Response_time.zero with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative decode must be rejected")

(* ------------------------------------------------------------------ *)
(* Scheduler equivalence: pipelining changes instants, nothing else *)

let mixed_jobs ?(count = 6) ?(off = 0) ~seed () =
  let pairs n o = Array.init n (fun i -> queries.((o + i) mod Array.length queries)) in
  let arrivals =
    Workload.arrivals (Workload.Bursts { period = 400.0; mean_size = 3 }) ~count ~seed
  in
  Scheduler.mix
    [ ("ci", pairs count off, arrivals); ("pi", pairs count (off + 8), arrivals) ]

let pipelined_cfg depth =
  { Scheduler.min_width = 1;
    max_width = 8;
    slo = 400.0;
    policy = Scheduler.Fixed 4;
    depth }

let run_at_depth ?off ~seed depth =
  (* force the lazy database builds before the telemetry snapshot, so
     the first run's shape does not carry the one-time build I/O *)
  ignore (Lazy.force databases);
  Obs.reset ();
  let jobs = mixed_jobs ?off ~seed () in
  let report = Scheduler.run (pipelined_cfg depth) ~tenants:(tenants ()) ~jobs in
  (report, Obs.shape ())

let observables (report : Scheduler.report) =
  ( Array.to_list
      (Array.map
         (fun (s : Scheduler.served) ->
           Printf.sprintf "%s[%d] %s path=%s" s.Scheduler.job.Queue.tenant
             s.Scheduler.job.Queue.index
             (trace_of s.Scheduler.result)
             (match s.Scheduler.result.Client.path with
             | Some (p, c) ->
                 Printf.sprintf "%s/%.6f" (String.concat "," (List.map string_of_int p)) c
             | None -> "-"))
         report.Scheduler.served),
    List.map
      (fun (b : Scheduler.batch_record) ->
        Printf.sprintf "%s w=%d t=%.6f" b.Scheduler.b_tenant b.Scheduler.b_width
          b.Scheduler.b_dispatched)
      report.Scheduler.batches )

let test_depth_invariance () =
  let base, shape1 = run_at_depth ~seed:3 1 in
  let traces1, batches1 = observables base in
  List.iter
    (fun depth ->
      let report, shape = run_at_depth ~seed:3 depth in
      let traces, batches = observables report in
      Alcotest.(check (list string))
        (Printf.sprintf "depth %d: per-member traces and answers = synchronous" depth)
        traces1 traces;
      Alcotest.(check (list string))
        (Printf.sprintf "depth %d: batch sequence = synchronous" depth)
        batches1 batches;
      Alcotest.(check string)
        (Printf.sprintf "depth %d: telemetry shape = synchronous" depth)
        shape1 shape)
    [ 2; 4 ]

(* Every batch runs to completion on the caller's span stack, so at any
   depth each one files its spans under the root paths bench/perf's
   layer table reads: one [query], [query/plan] and [query/solve] call
   per batch, nothing misnested and no span outside [query]. *)
let test_span_attribution () =
  let report, shape = run_at_depth ~seed:3 4 in
  let batches = List.length report.Scheduler.batches in
  Alcotest.(check bool) "several batches" true (batches > 1);
  Alcotest.(check int) "no misnesting" 0 (Obs.count c_misnested);
  List.iter
    (fun path ->
      match Obs.span_stats path with
      | Some st -> Alcotest.(check int) (path ^ " calls = batches") batches st.Obs.calls
      | None -> Alcotest.fail ("span " ^ path ^ " missing"))
    [ "query"; "query/plan"; "query/solve" ];
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | "span" :: path :: _ ->
          Alcotest.(check bool)
            (path ^ " is filed under query")
            true
            (path = "query" || String.starts_with ~prefix:"query/" path)
      | _ -> ())
    (String.split_on_char '\n' shape)

(* The server-visible fetch sequence is the concatenation of batch
   traces in dispatch order; with the batch sequence and per-member
   traces equal across depths it is equal too.  This asserts the
   executed-store side of the same fact: the oblivious store performed
   exactly the same physical work under every depth. *)
let test_executed_work_depth_invariant () =
  let work depth =
    (* pyramid-mode servers: the executed-work odometers live in the
       oblivious store, which the default (simulated-only) mode skips *)
    let tns =
      List.map
        (fun (name, db) ->
          { Scheduler.name;
            server = Server.create ~mode:`Pyramid ~cost ~key (DB.files db);
            graph = g })
        (Lazy.force databases)
    in
    let jobs = mixed_jobs ~seed:23 () in
    let _ = Scheduler.run (pipelined_cfg depth) ~tenants:tns ~jobs in
    List.map
      (fun tn ->
        ( Server.executed_slot_touches tn.Scheduler.server,
          Server.executed_level_scans tn.Scheduler.server ))
      tns
  in
  let w1 = work 1 in
  Alcotest.(check bool) "some executed work" true
    (List.exists (fun (t, _) -> t > 0) w1);
  List.iter
    (fun depth ->
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "slot touches and level scans at depth %d" depth)
        w1 (work depth))
    [ 2; 4 ]

(* 32-seed fault sweep: under a replayed recoverable fault schedule,
   the synchronous (depth 1) and pipelined (depth 4) runs must agree on
   everything the LBS and the client can see — the faults land on the
   same retrievals of the same members — and batch members stay
   mutually indistinguishable. *)
let test_fault_sweep_depth_invariant () =
  for seed = 0 to 31 do
    let rng = Psp_util.Rng.create (0xa5fc + seed) in
    let pick n = 1 + Psp_util.Rng.int rng n in
    let arms =
      List.filteri
        (fun i _ -> i = seed mod 2 || Psp_util.Rng.int rng 2 = 0)
        [ ("pir.fetch.transient", F.Hits [ pick 6; 6 + pick 6 ]);
          ("pir.fetch.corrupt", F.Hits [ pick 10 ]) ]
    in
    List.iter (fun (p, s) -> F.arm p s) arms;
    Fun.protect ~finally:F.reset (fun () ->
        let run depth =
          F.rewind ();
          let report, _ = run_at_depth ~seed depth in
          let by_batch = Hashtbl.create 8 in
          Array.iter
            (fun (s : Scheduler.served) ->
              let k = (s.Scheduler.job.Queue.tenant, s.Scheduler.dispatched) in
              Hashtbl.replace by_batch k
                (s.Scheduler.result.Client.stats.Session.trace
                :: Option.value ~default:[] (Hashtbl.find_opt by_batch k)))
            report.Scheduler.served;
          Hashtbl.iter
            (fun (tenant, _) traces ->
              match Privacy.indistinguishable traces with
              | Ok () -> ()
              | Error e ->
                  Alcotest.fail
                    (Printf.sprintf "seed %d depth %d: %s batch members leak: %s"
                       seed depth tenant e))
            by_batch;
          let retries =
            Array.to_list
              (Array.map
                 (fun (s : Scheduler.served) ->
                   s.Scheduler.result.Client.stats.Session.retries)
                 report.Scheduler.served)
          in
          let traces, batches = observables report in
          (traces, batches, retries)
        in
        let t1, b1, r1 = run 1 and t4, b4, r4 = run 4 in
        Alcotest.(check (list string))
          (Printf.sprintf "seed %d: faulted traces identical across depths" seed)
          t1 t4;
        Alcotest.(check (list string))
          (Printf.sprintf "seed %d: faulted batch sequence identical" seed)
          b1 b4;
        Alcotest.(check (list int))
          (Printf.sprintf "seed %d: faults hit the same members" seed)
          r1 r4)
  done

(* ------------------------------------------------------------------ *)
(* The acceptance bar (also measured by bench --experiment pipeline):
   for a back-to-back burst at width >= 4, overlapping decode with the
   next batch's fetch strictly improves mean response over the
   synchronous schedule, and the modeled latencies never get worse. *)

let latencies ~width ~depth =
  let count = 16 in
  let pairs = Array.init count (fun i -> queries.(i mod Array.length queries)) in
  let arrivals = Array.make count 0.0 in
  let jobs = Scheduler.mix [ ("ci", pairs, arrivals) ] in
  let db = List.assoc "ci" (Lazy.force databases) in
  let cfg =
    { Scheduler.min_width = 1;
      max_width = 16;
      slo = 400.0;
      policy = Scheduler.Fixed width;
      depth }
  in
  let report =
    Scheduler.run cfg
      ~tenants:[ { Scheduler.name = "ci"; server = server_of db; graph = g } ]
      ~jobs
  in
  Array.map (fun (s : Scheduler.served) -> s.Scheduler.latency) report.Scheduler.served

let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let test_pipelined_beats_sync () =
  List.iter
    (fun width ->
      let sync = latencies ~width ~depth:1 in
      let piped = latencies ~width ~depth:2 in
      Alcotest.(check int) "same job count" (Array.length sync) (Array.length piped);
      Array.iteri
        (fun i p ->
          Alcotest.(check bool)
            (Printf.sprintf "width %d: job %d never slower pipelined" width i)
            true
            (p <= sync.(i) +. 1e-9))
        piped;
      Alcotest.(check bool)
        (Printf.sprintf "width %d: pipelined mean %.3fs < sync mean %.3fs" width
           (mean piped) (mean sync))
        true
        (mean piped < mean sync))
    [ 4; 8 ]

(* A fill-or-timeout lane cannot dispatch a partial batch before its
   head's SLO deadline, so no depth may start that batch's fetch
   earlier: the lone job at t = 0, with the next arrival far beyond the
   deadline, waits the full SLO at every depth. *)
let test_partial_batch_waits_for_timeout () =
  let pairs = [| queries.(0); queries.(1) |] in
  let jobs = Scheduler.mix [ ("ci", pairs, [| 0.0; 1000.0 |]) ] in
  let db = List.assoc "ci" (Lazy.force databases) in
  List.iter
    (fun depth ->
      let cfg =
        { Scheduler.min_width = 1;
          max_width = 8;
          slo = 60.0;
          policy = Scheduler.Fixed 4;
          depth }
      in
      let report =
        Scheduler.run cfg
          ~tenants:[ { Scheduler.name = "ci"; server = server_of db; graph = g } ]
          ~jobs
      in
      let lone = report.Scheduler.served.(0) in
      Alcotest.(check bool)
        (Printf.sprintf "depth %d: lone job latency %.2fs >= slo" depth
           lone.Scheduler.latency)
        true
        (lone.Scheduler.latency >= 60.0))
    [ 1; 2; 4 ]

let test_config_validation () =
  let jobs = mixed_jobs ~count:2 ~seed:7 () in
  let base = pipelined_cfg 2 in
  List.iter
    (fun cfg ->
      match Scheduler.run cfg ~tenants:(tenants ()) ~jobs with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "invalid scheduler config must be rejected")
    [ { base with Scheduler.policy = Scheduler.Fixed 0 };
      { base with Scheduler.depth = 0 } ]

let () =
  Alcotest.run "pipeline"
    [ ( "executor",
        [ Alcotest.test_case "depth-2 timeline and overlap" `Quick test_timeline_depth2;
          Alcotest.test_case "depth 1 is synchronous" `Quick
            test_timeline_depth1_is_synchronous;
          Alcotest.test_case "ready and window gates" `Quick test_ready_and_window_gates ] );
      ( "model",
        [ Alcotest.test_case "decode and overlap estimates" `Quick test_cost_model_decode;
          Alcotest.test_case "response-time decode component" `Quick
            test_response_time_decode ] );
      ( "equivalence",
        [ Alcotest.test_case "traces/batches/shape across depths 1-2-4" `Slow
            test_depth_invariance;
          Alcotest.test_case "spans filed per batch at depth 4" `Quick
            test_span_attribution;
          Alcotest.test_case "executed store work depth-invariant" `Slow
            test_executed_work_depth_invariant;
          Alcotest.test_case "32-seed fault sweep across depths" `Slow
            test_fault_sweep_depth_invariant;
          Alcotest.test_case "partial batch waits for its timeout" `Quick
            test_partial_batch_waits_for_timeout;
          Alcotest.test_case "config validation" `Quick test_config_validation ] );
      ( "speedup",
        [ Alcotest.test_case "pipelined beats sync at width 4 and 8" `Slow
            test_pipelined_beats_sync ] ) ]
