(* The multi-tenant serving frontend: a mixed CI+PI stream scheduled
   into per-plan batches must leave every member's adversary trace
   byte-identical to a single-plan sequential run (the mix, the widths
   and the queueing must change *when* things happen, never *what* the
   LBS sees per query), and the adaptive width policy must beat every
   fixed width on tail latency for a bursty workload. *)

module DB = Psp_index.Database
module Server = Psp_pir.Server
module Session = Psp_pir.Server.Session
module F = Psp_fault.Fault
module Workload = Psp_netgen.Workload
module Scheduler = Psp_serve.Scheduler
module Queue = Psp_serve.Queue
open Psp_core

let key = Psp_crypto.Sha256.digest_string "serve tests"
let cost = Psp_pir.Cost_model.ibm4764
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

let close_cost got truth = Float.abs (got -. truth) <= 1e-3 *. Float.max 1.0 truth

(* Two interleaved tenant streams over one shared arrival schedule.
   [off] shifts which query pairs are used without touching the public
   schedule (tenants, arrivals). *)
let mixed_jobs ?(count = 6) ?(off = 0) ~seed () =
  let pairs n o = Array.init n (fun i -> queries.((o + i) mod Array.length queries)) in
  let arrivals =
    Workload.arrivals (Workload.Bursts { period = 400.0; mean_size = 3 }) ~count ~seed
  in
  Scheduler.mix
    [ ("ci", pairs count off, arrivals); ("pi", pairs count (off + 8), arrivals) ]

let default_cfg =
  { Scheduler.min_width = 1;
    max_width = 8;
    slo = 400.0;
    policy = Scheduler.Adaptive;
    depth = 1 }

(* ------------------------------------------------------------------ *)
(* Queue mechanics *)

let job tenant arrival index =
  { Queue.tenant; src = 0; dst = 1; arrival; index }

let test_queue_fifo () =
  let q = Queue.create () in
  List.iter (Queue.push q)
    [ job "ci" 0.0 0; job "pi" 0.5 1; job "ci" 1.0 2; job "ci" 1.0 3 ];
  Alcotest.(check (list string)) "first-push tenant order" [ "ci"; "pi" ]
    (Queue.tenants q);
  Alcotest.(check int) "ci depth" 3 (Queue.depth q "ci");
  Alcotest.(check (option (float 1e-9))) "ci head" (Some 0.0)
    (Queue.head_arrival q "ci");
  let taken = Queue.take q "ci" ~max:2 in
  Alcotest.(check (list int)) "oldest first"
    [ 0; 2 ]
    (Array.to_list (Array.map (fun (j : Queue.job) -> j.Queue.index) taken));
  Alcotest.(check int) "remaining" 2 (Queue.total_depth q);
  Alcotest.(check int) "pushed counts survive take" 3 (Queue.pushed q "ci");
  (match Queue.push q (job "ci" 0.5 4) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "expected rejection of a time-travelling arrival")

(* ------------------------------------------------------------------ *)
(* Mixed-queue indistinguishability: every member's trace equals the
   single-plan sequential trace, whatever the mix. *)

let trace_of (r : Client.result) =
  Psp_pir.Trace.fingerprint r.Client.stats.Session.trace

let test_mixed_equals_sequential () =
  let jobs = mixed_jobs ~seed:3 () in
  let report = Scheduler.run default_cfg ~tenants:(tenants ()) ~jobs in
  Alcotest.(check int) "every job served" (Array.length jobs)
    (Array.length report.Scheduler.served);
  Array.iter
    (fun (s : Scheduler.served) ->
      let j = s.Scheduler.job in
      let db = List.assoc j.Queue.tenant (Lazy.force databases) in
      let seq = Client.query_nodes (server_of db) g j.Queue.src j.Queue.dst in
      Alcotest.(check string)
        (Printf.sprintf "%s[%d]: scheduled trace = sequential trace" j.Queue.tenant
           j.Queue.index)
        (trace_of seq) (trace_of s.Scheduler.result);
      match (seq.Client.path, s.Scheduler.result.Client.path) with
      | Some (p1, c1), Some (p2, c2) ->
          Alcotest.(check (list int)) "same path" p1 p2;
          Alcotest.(check bool) "same cost" true (close_cost c1 c2)
      | None, None -> ()
      | _ -> Alcotest.fail "scheduled and sequential answers disagree")
    report.Scheduler.served

let test_mixed_correct () =
  let jobs = mixed_jobs ~count:5 ~seed:11 () in
  let report = Scheduler.run default_cfg ~tenants:(tenants ()) ~jobs in
  Array.iter
    (fun (s : Scheduler.served) ->
      let j = s.Scheduler.job in
      let truth = Psp_graph.Dijkstra.distance g j.Queue.src j.Queue.dst in
      match s.Scheduler.result.Client.path with
      | Some (_, got) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %d->%d exact" j.Queue.tenant j.Queue.src j.Queue.dst)
            true (close_cost got truth)
      | None -> Alcotest.fail "no path from the scheduler")
    report.Scheduler.served

(* 32-seed fault sweep: per seed, a recoverable schedule is armed and
   the same mixed two-tenant stream is served twice under the replayed
   schedule with {e different} secret endpoints.  Everything the LBS
   sees must be a function of the public schedule and the fault
   outcomes alone: per-member traces identical across the two runs,
   identical batch sequences, and every batch's members mutually
   indistinguishable. *)
let test_mixed_fault_sweep () =
  for seed = 0 to 31 do
    let rng = Psp_util.Rng.create (0x5e7fe + seed) in
    let pick n = 1 + Psp_util.Rng.int rng n in
    let arms =
      List.filteri
        (fun i _ -> i = seed mod 2 || Psp_util.Rng.int rng 2 = 0)
        [ ("pir.fetch.transient", F.Hits [ pick 6; 6 + pick 6 ]);
          ("pir.fetch.corrupt", F.Hits [ pick 10 ]) ]
    in
    List.iter (fun (p, s) -> F.arm p s) arms;
    Fun.protect ~finally:F.reset (fun () ->
        let run off =
          F.rewind ();
          let jobs = mixed_jobs ~count:3 ~off ~seed () in
          let report = Scheduler.run default_cfg ~tenants:(tenants ()) ~jobs in
          (* members of one batch stay mutually indistinguishable *)
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
                    (Printf.sprintf "seed %d: %s batch members leak: %s" seed tenant e))
            by_batch;
          ( Array.to_list
              (Array.map (fun (s : Scheduler.served) -> trace_of s.Scheduler.result)
                 report.Scheduler.served),
            List.map
              (fun (b : Scheduler.batch_record) ->
                Printf.sprintf "%s w=%d t=%.6f" b.Scheduler.b_tenant
                  b.Scheduler.b_width b.Scheduler.b_dispatched)
              report.Scheduler.batches )
        in
        let traces_a, sched_a = run 0 and traces_b, sched_b = run 5 in
        Alcotest.(check (list string))
          (Printf.sprintf "seed %d: traces depend only on the public schedule" seed)
          traces_a traces_b;
        Alcotest.(check (list string))
          (Printf.sprintf "seed %d: batch sequence is endpoint-independent" seed)
          sched_a sched_b)
  done

(* ------------------------------------------------------------------ *)
(* Width policy *)

let test_width_bounds () =
  let cfg = { default_cfg with Scheduler.min_width = 2; max_width = 4 } in
  let jobs = mixed_jobs ~count:8 ~seed:21 () in
  let report = Scheduler.run cfg ~tenants:(tenants ()) ~jobs in
  Alcotest.(check bool) "at least one batch" true (report.Scheduler.batches <> []);
  List.iter
    (fun (b : Scheduler.batch_record) ->
      Alcotest.(check bool)
        (Printf.sprintf "batch width %d within [1, max]" b.Scheduler.b_width)
        true
        (b.Scheduler.b_width >= 1 && b.Scheduler.b_width <= 4))
    report.Scheduler.batches

let test_fixed_width_cap () =
  let cfg = { default_cfg with Scheduler.policy = Scheduler.Fixed 2 } in
  let jobs = mixed_jobs ~count:6 ~seed:13 () in
  let report = Scheduler.run cfg ~tenants:(tenants ()) ~jobs in
  List.iter
    (fun (b : Scheduler.batch_record) ->
      Alcotest.(check bool) "fixed policy never exceeds its width" true
        (b.Scheduler.b_width <= 2))
    report.Scheduler.batches

(* The schedule is a function of public inputs only: same arrival
   schedule and tenant mix, different secret endpoints => identical
   (tenant, width, dispatch-instant) sequence and identical Obs shape. *)
let test_schedule_public () =
  let run_with off =
    Psp_obs.Obs.reset ();
    let count = 5 in
    let pairs n o =
      Array.init n (fun i -> queries.((o + i) mod Array.length queries))
    in
    let arrivals =
      Workload.arrivals (Workload.Bursts { period = 400.0; mean_size = 3 }) ~count
        ~seed:17
    in
    let jobs =
      Scheduler.mix
        [ ("ci", pairs count off, arrivals); ("pi", pairs count (off + 3), arrivals) ]
    in
    let report = Scheduler.run default_cfg ~tenants:(tenants ()) ~jobs in
    let schedule =
      List.map
        (fun (b : Scheduler.batch_record) ->
          Printf.sprintf "%s w=%d t=%.6f" b.Scheduler.b_tenant b.Scheduler.b_width
            b.Scheduler.b_dispatched)
        report.Scheduler.batches
    in
    (schedule, Psp_obs.Obs.shape ())
  in
  let s1, shape1 = run_with 0 in
  let s2, shape2 = run_with 7 in
  Alcotest.(check (list string)) "same public schedule for different endpoints" s1 s2;
  Alcotest.(check string) "same telemetry shape for different endpoints" shape1 shape2

(* ------------------------------------------------------------------ *)
(* Latency accounting and the adaptive-beats-fixed acceptance bar *)

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let p95_of_policy policy =
  let cfg = { Scheduler.min_width = 1; max_width = 16; slo = 500.0; policy; depth = 1 } in
  (* one bursty tenant: bursts of mean 6 every 2000 s *)
  let count = 24 in
  let pairs = Array.init count (fun i -> queries.(i mod Array.length queries)) in
  let arrivals =
    Workload.arrivals (Workload.Bursts { period = 2000.0; mean_size = 6 }) ~count
      ~seed:29
  in
  let jobs = Scheduler.mix [ ("ci", pairs, arrivals) ] in
  let db = List.assoc "ci" (Lazy.force databases) in
  let report =
    Scheduler.run cfg
      ~tenants:[ { Scheduler.name = "ci"; server = server_of db; graph = g } ]
      ~jobs
  in
  let lat =
    Array.map (fun (s : Scheduler.served) -> s.Scheduler.latency)
      report.Scheduler.served
  in
  Array.sort compare lat;
  percentile lat 0.95

let test_adaptive_beats_fixed_p95 () =
  let adaptive = p95_of_policy Scheduler.Adaptive in
  List.iter
    (fun w ->
      let fixed = p95_of_policy (Scheduler.Fixed w) in
      Alcotest.(check bool)
        (Printf.sprintf "adaptive p95 (%.1fs) < fixed-%d p95 (%.1fs)" adaptive w fixed)
        true (adaptive < fixed))
    [ 1; 4; 16 ]

let test_latency_decomposition () =
  let jobs = mixed_jobs ~count:5 ~seed:41 () in
  let report = Scheduler.run default_cfg ~tenants:(tenants ()) ~jobs in
  Array.iter
    (fun (s : Scheduler.served) ->
      Alcotest.(check bool) "queue component is the dispatch wait" true
        (Float.abs
           (s.Scheduler.response.Response_time.queue_seconds
           -. (s.Scheduler.dispatched -. s.Scheduler.job.Queue.arrival))
        < 1e-9);
      Alcotest.(check bool) "latency = completion - arrival >= wait" true
        (s.Scheduler.latency
         >= s.Scheduler.response.Response_time.queue_seconds -. 1e-9);
      Alcotest.(check bool) "completion consistent" true
        (Float.abs
           (s.Scheduler.completed -. s.Scheduler.job.Queue.arrival
          -. s.Scheduler.latency)
        < 1e-9))
    report.Scheduler.served;
  Alcotest.(check bool) "makespan covers every completion" true
    (Array.for_all
       (fun (s : Scheduler.served) ->
         s.Scheduler.completed <= report.Scheduler.makespan +. 1e-9)
       report.Scheduler.served)

let test_workload_arrivals () =
  let steady = Workload.arrivals (Workload.Steady { rate = 2.0 }) ~count:4 ~seed:1 in
  Alcotest.(check (list (float 1e-9))) "steady gaps" [ 0.0; 0.5; 1.0; 1.5 ]
    (Array.to_list steady);
  List.iter
    (fun p ->
      let a = Workload.arrivals p ~count:50 ~seed:3 in
      let b = Workload.arrivals p ~count:50 ~seed:3 in
      Alcotest.(check bool) "deterministic in seed" true (a = b);
      Array.iteri
        (fun i v -> if i > 0 then
            Alcotest.(check bool) "nondecreasing" true (v >= a.(i - 1)))
        a)
    [ Workload.Steady { rate = 0.5 };
      Workload.Poisson { rate = 1.5 };
      Workload.Bursts { period = 10.0; mean_size = 4 } ];
  (match Workload.arrival_of_string "bursts:10x8" with
  | Ok (Workload.Bursts { period; mean_size }) ->
      Alcotest.(check (float 1e-9)) "period" 10.0 period;
      Alcotest.(check int) "size" 8 mean_size
  | _ -> Alcotest.fail "bursts spec did not parse");
  (match Workload.arrival_of_string "poisson:nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected a parse error")

let () =
  Alcotest.run "serve"
    [ ( "queue",
        [ Alcotest.test_case "per-tenant FIFO" `Quick test_queue_fifo;
          Alcotest.test_case "arrival processes" `Quick test_workload_arrivals ] );
      ( "privacy",
        [ Alcotest.test_case "mixed = sequential traces" `Slow
            test_mixed_equals_sequential;
          Alcotest.test_case "32-seed mixed fault sweep" `Slow test_mixed_fault_sweep;
          Alcotest.test_case "schedule is endpoint-independent" `Quick
            test_schedule_public ] );
      ( "serving",
        [ Alcotest.test_case "answers exact" `Slow test_mixed_correct;
          Alcotest.test_case "width bounds" `Quick test_width_bounds;
          Alcotest.test_case "fixed-width cap" `Quick test_fixed_width_cap;
          Alcotest.test_case "latency decomposition" `Quick test_latency_decomposition ] );
      ( "slo",
        [ Alcotest.test_case "adaptive beats fixed 1/4/16 on p95" `Slow
            test_adaptive_beats_fixed_p95 ] ) ]
