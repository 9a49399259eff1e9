(* The four benchmark workloads.  This is the benchmark's only module
   that calls the serving API — the Database builders, Server and
   Replica_set creation, the Client entry points and the Scheduler — so
   an API reshape edits this one file.

   Every workload runs the Oldenburg preset with 4 KB pages on
   `Pyramid servers, so the real oblivious store executes.  Queries are
   derived from the run seed and the call index; the library receives
   only the generated inputs.  Arrivals (serve-burst) and fault streams
   (ci-chaos-r3) belong to the workload's definition and are the same
   for every seed: by obliviousness, query content never changes the
   executed work, so two seeds differ only in the answers checked and
   the spread across seeds measures the machine, not the workload.
   Answers and traces are checked after each timed call, outside the
   timed region. *)

module DB = Psp_index.Database
module PF = Psp_storage.Page_file
module CM = Psp_pir.Cost_model
module Server = Psp_pir.Server
module Session = Psp_pir.Server.Session
module RS = Psp_pir.Replica_set
module Fault = Psp_fault.Fault
module Sched = Psp_serve.Scheduler
open Psp_core

let names = [ "ci-w1"; "pi-w8"; "serve-burst"; "ci-chaos-r3" ]
let key = Psp_crypto.Sha256.digest_string "psp-perf"

(* What the timed calls did, accumulated over a phase of the run. *)
type tally = {
  mutable calls : (float * float * int) list;
      (** wall seconds, speed scale and queries of each call, newest first *)
  mutable queries : int;  (** attempted *)
  mutable wrong : int;  (** answered, but not the shortest-path cost *)
  mutable failed : int;  (** unavailable, unknown scheme or escaped exception *)
  mutable leaks : int;  (** failed Privacy.conforms / indistinguishable *)
  mutable wall_s : float;  (** summed wall time of the timed calls *)
  mutable alloc_bytes : float;  (** allocated inside the timed calls *)
  mutable majors : int;  (** major collections inside the timed calls *)
  mutable samples_ms : (float * float) list;
      (** latency and speed scale, one per client call (per batch when batched) *)
  mutable model_s : float list;  (** modeled latency, one per query *)
  mutable pir_s : float;
  mutable comm_s : float;
  mutable fetches : int;  (** PIR fetches, abandoned attempts included *)
  mutable abandoned_fetches : int;
  mutable failovers : int;
  mutable retries : int;
  mutable batches : int;
}

let tally () =
  { calls = []; queries = 0; wrong = 0; failed = 0; leaks = 0; wall_s = 0.0;
    alloc_bytes = 0.0; majors = 0; samples_ms = []; model_s = []; pir_s = 0.0;
    comm_s = 0.0; fetches = 0; abandoned_fetches = 0; failovers = 0; retries = 0;
    batches = 0 }

type t = {
  graph_s : float;
  build_s : float;
  server_s : float;
  servers : Server.t list;  (** the `Pyramid servers, for executed-work counters *)
  dbs : DB.t list;  (** the served databases (plans, files) *)
  step : int -> tally -> unit;  (** run and check the [i]-th timed client call *)
  slo_rate_qph : tally -> float;  (** model: highest rate meeting the SLO *)
}

(* Inputs of call [i] under run seed [seed]; [salt] separates streams.
   [fixed] stands in for the seed in streams that do not vary with it. *)
let derive seed i salt = Hashtbl.hash (seed, i, salt)
let fixed = 0

let timed t ~req ~queries f =
  let alloc0 = Gc.allocated_bytes () in
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  let r, dt =
    Timing.with_span ~req "call" (fun () ->
        Timing.time (fun () -> match f () with v -> Ok v | exception e -> Error e))
  in
  t.alloc_bytes <- t.alloc_bytes +. (Gc.allocated_bytes () -. alloc0);
  t.majors <- t.majors + ((Gc.quick_stat ()).Gc.major_collections - majors0);
  (* one kernel run per 50 ms of call time: enough samples for a local
     median, at under 1 % of the run *)
  let scale = Timing.speed_scale (1 + int_of_float (dt /. 0.05)) in
  t.calls <- (dt, scale, queries) :: t.calls;
  t.queries <- t.queries + queries;
  t.wall_s <- t.wall_s +. dt;
  (r, dt, scale)

let fetch_count (s : Session.stats) =
  List.fold_left (fun acc (_, n) -> acc + n) 0 s.Session.pir_fetches

let check_answer t g (s, d) (r : Client.result) =
  match r.Client.status with
  | Client.Unavailable _ | Client.Unknown_scheme _ -> t.failed <- t.failed + 1
  | Client.Served | Client.Degraded _ -> (
      let truth = Psp_graph.Dijkstra.distance g s d in
      match r.Client.path with
      | Some (_, got) when Float.abs (got -. truth) <= 1e-3 *. Float.max 1.0 truth -> ()
      | None when truth = infinity -> ()
      | _ -> t.wrong <- t.wrong + 1)

let check_conforms t (db : DB.t) (r : Client.result) =
  let header_pages = PF.page_count db.DB.header_file in
  match Privacy.conforms db.DB.header ~header_pages r.Client.stats.Session.trace with
  | Ok () -> ()
  | Error _ -> t.leaks <- t.leaks + 1

let check_members t (rs : Client.result list) =
  match Privacy.indistinguishable (List.map (fun r -> r.Client.stats.Session.trace) rs) with
  | Ok () -> ()
  | Error _ -> t.leaks <- t.leaks + 1

(* Modeled latency of a closed-loop query: the server-side components
   only.  [client_seconds] is the library's CPU-time sample and in
   `Pyramid mode includes the executed store pass, so it is not a model
   figure. *)
let record_model t (rt : Response_time.t) ~latency =
  t.model_s <- latency :: t.model_s;
  t.pir_s <- t.pir_s +. rt.Response_time.pir_seconds;
  t.comm_s <- t.comm_s +. rt.Response_time.comm_seconds

let server_side (rt : Response_time.t) =
  rt.Response_time.pir_seconds +. rt.Response_time.comm_seconds
  +. rt.Response_time.server_cpu_seconds

let record_result t (r : Client.result) =
  let rt = Response_time.of_result r in
  record_model t rt ~latency:(server_side rt);
  t.fetches <- t.fetches + fetch_count r.Client.stats;
  t.retries <- t.retries + r.Client.stats.Session.retries

(* A closed-loop model capacity: one serial server answering back to
   back, as long as the modeled p95 stays inside the SLO. *)
let closed_loop_capacity t =
  let model = Array.of_list t.model_s in
  if Array.length model = 0 || Psp_util.Stats.percentile model 95.0 > Sched.default.Sched.slo
  then 0.0
  else 3600.0 *. float_of_int (Array.length model) /. Psp_util.Stats.total model

(* ------------------------------------------------------------------ *)
(* Set-up: graph generation, database build, server creation. *)

let cost ~scale = CM.with_max_file CM.ibm4764 ~bytes:(int_of_float (2.5e9 /. scale))

let phase name f = Timing.with_span name (fun () -> Timing.time f)

let pyramid cost db = Server.create ~mode:`Pyramid ~cost ~key (DB.files db)

(* ------------------------------------------------------------------ *)
(* Closed loop, one client: ci-w1 (Client.query_nodes) and pi-w8
   (Client.query_nodes_batch).  A batch member's latency sample is its
   batch's wall time, so samples are per call. *)

let closed_loop ~width ~server ~db g seed i t =
  let pairs = Psp_netgen.Synthetic.random_queries g ~count:width ~seed:(derive seed i 0) in
  let outcome, dt, scale =
    timed t ~req:i ~queries:width (fun () ->
        if width = 1 then
          let s, d = pairs.(0) in
          [| Client.query_nodes server g s d |]
        else Client.query_nodes_batch server g pairs)
  in
  t.batches <- t.batches + 1;
  t.samples_ms <- (dt *. 1e3, scale) :: t.samples_ms;
  Timing.with_span ~req:i "check" (fun () ->
      match outcome with
      | Error _ -> t.failed <- t.failed + width
      | Ok results ->
          Array.iteri
            (fun k r ->
              check_answer t g pairs.(k) r;
              check_conforms t db r;
              record_result t r)
            results;
          check_members t (Array.to_list results))

(* ------------------------------------------------------------------ *)
(* ci-chaos-r3: CI over three replicas with a seeded fault mix.  An
   outage lasts four exchanges: with six, an outage that overlaps a few
   tampered pages can exhaust the 3 × width failover budget (about one
   query in a few thousand), and the workload is meant to exercise
   failover, not to fail. *)

let arm_chaos () =
  Fault.reset ();
  Fault.arm "pir.replica.down" (Fault.Flapping { up = 200; down = 4 });
  Fault.arm ~seed:(derive fixed 0 1) "pir.fetch.tamper" (Fault.Probability 0.005);
  Fault.arm ~seed:(derive fixed 0 2) "pir.replica.latency" (Fault.Probability 0.0025)

let chaos_step ~rset ~db ~cost g seed i t =
  let pair = (Psp_netgen.Synthetic.random_queries g ~count:1 ~seed:(derive seed i 0)).(0) in
  let outcome, dt, scale =
    timed t ~req:i ~queries:1 (fun () ->
        Client.query_nodes_replicated rset g (fst pair) (snd pair))
  in
  t.batches <- t.batches + 1;
  t.samples_ms <- (dt *. 1e3, scale) :: t.samples_ms;
  Timing.with_span ~req:i "check" (fun () ->
      match outcome with
      | Error RS.No_replica_available ->
          (* every breaker open: the query never ran; let a timeout's worth
             of simulated time pass so the set can heal *)
          t.failed <- t.failed + 1;
          RS.advance rset (CM.timeout_seconds cost)
      | Error _ -> t.failed <- t.failed + 1
      | Ok rep ->
          let r = rep.Client.results.(0) in
          check_answer t g pair r;
          if rep.Client.failovers = 0 && r.Client.stats.Session.retries = 0 then
            check_conforms t db r;
          let rt = (Response_time.of_replicated rep).(0) in
          record_model t rt ~latency:(server_side rt);
          let abandoned =
            List.fold_left
              (fun acc (a : Client.abandoned) ->
                Array.fold_left (fun acc s -> acc + fetch_count s) acc a.Client.attempt_stats)
              0 rep.Client.abandoned
          in
          t.fetches <- t.fetches + fetch_count r.Client.stats + abandoned;
          t.abandoned_fetches <- t.abandoned_fetches + abandoned;
          t.failovers <- t.failovers + rep.Client.failovers;
          t.retries <- t.retries + r.Client.stats.Session.retries)

(* ------------------------------------------------------------------ *)
(* serve-burst: a CI and a PI tenant, bursty arrivals on the scheduler's
   virtual clock (open loop in model time), served by the default
   adaptive scheduler.  Each timed call serves one episode of
   [episode] queries per tenant.  Scheduler.run is a single call, so a
   batch's wall sample is the batch time the library itself samples
   (client_seconds × width: process CPU time, which tracks wall time in
   this single-threaded process). *)

let episode = 40
let burst_period = 400.0

let serve_jobs g ~mean_size ~count seed i tenants =
  Sched.mix
    (List.mapi
       (fun k (tn : Sched.tenant) ->
         ( tn.Sched.name,
           Psp_netgen.Synthetic.random_queries g ~count ~seed:(derive seed i (2 * k)),
           Psp_netgen.Workload.arrivals
             (Psp_netgen.Workload.Bursts { period = burst_period; mean_size })
             ~count ~seed:(derive fixed i ((2 * k) + 1)) ))
       tenants)

let serve_step ~tenants ~dbs g seed i t =
  let jobs = serve_jobs g ~mean_size:6 ~count:episode seed i tenants in
  let outcome, _, scale =
    timed t ~req:i ~queries:(Array.length jobs) (fun () -> Sched.run Sched.default ~tenants ~jobs)
  in
  Timing.with_span ~req:i "check" (fun () ->
      match outcome with
      | Error _ -> t.failed <- t.failed + Array.length jobs
      | Ok report ->
          let batches = Hashtbl.create 64 in
          Array.iter
            (fun (s : Sched.served) ->
              let j = s.Sched.job in
              let r = s.Sched.result in
              check_answer t g (j.Psp_serve.Queue.src, j.Psp_serve.Queue.dst) r;
              check_conforms t (List.assoc j.Psp_serve.Queue.tenant dbs) r;
              record_model t s.Sched.response ~latency:s.Sched.latency;
              t.fetches <- t.fetches + fetch_count r.Client.stats;
              t.retries <- t.retries + r.Client.stats.Session.retries;
              let id = (j.Psp_serve.Queue.tenant, s.Sched.dispatched) in
              Hashtbl.replace batches id
                (s :: Option.value ~default:[] (Hashtbl.find_opt batches id)))
            report.Sched.served;
          Hashtbl.iter
            (fun _ members ->
              let s = List.hd members in
              t.batches <- t.batches + 1;
              t.samples_ms <-
                ( s.Sched.result.Client.client_seconds *. float_of_int s.Sched.width *. 1e3,
                  scale )
                :: t.samples_ms;
              check_members t (List.map (fun (m : Sched.served) -> m.Sched.result) members))
            batches)

(* The SLO sweep: the same generator at growing burst sizes on
   `Simulated servers (identical modeled latencies, no store time).  A
   rate meets the SLO when the modeled p95 stays inside it and the
   backlog drains within it after the last arrival.  The streams are
   longer than an episode so that a growing backlog shows. *)
let sweep_count = 160

let slo_sweep ~dbs ~cost g seed =
  Timing.with_span "slo_sweep" (fun () ->
      let tenants =
        List.map
          (fun (name, db) ->
            { Sched.name; server = Server.create ~cost ~key (DB.files db); graph = g })
          dbs
      in
      let slo = Sched.default.Sched.slo in
      List.fold_left
        (fun best mean_size ->
          let jobs = serve_jobs g ~mean_size ~count:sweep_count seed (-1) tenants in
          let report = Sched.run Sched.default ~tenants ~jobs in
          let latency =
            Array.map (fun (s : Sched.served) -> s.Sched.latency) report.Sched.served
          in
          let last =
            Array.fold_left
              (fun m (j : Psp_serve.Queue.job) -> Float.max m j.Psp_serve.Queue.arrival)
              0.0 jobs
          in
          let rate =
            3600.0 *. float_of_int (List.length tenants * mean_size) /. burst_period
          in
          if Psp_util.Stats.percentile latency 95.0 <= slo && report.Sched.makespan -. last <= slo
          then Float.max best rate
          else best)
        0.0 [ 3; 6; 9; 12; 18; 24 ])

(* ------------------------------------------------------------------ *)

let setup name ~scale ~seed =
  let cost = cost ~scale in
  let page_size = cost.CM.page_size in
  let g, graph_s =
    phase "setup.graph" (fun () ->
        Psp_netgen.Presets.graph ~scale Psp_netgen.Presets.Oldenburg)
  in
  let build f = phase "setup.build" f and create f = phase "setup.server" f in
  let closed ~width build_db =
    let db, build_s = build build_db in
    let server, server_s = create (fun () -> pyramid cost db) in
    { graph_s; build_s; server_s; servers = [ server ]; dbs = [ db ];
      step = closed_loop ~width ~server ~db g seed;
      slo_rate_qph = closed_loop_capacity }
  in
  match name with
  | "ci-w1" -> closed ~width:1 (fun () -> DB.build_ci ~page_size g)
  | "pi-w8" -> closed ~width:8 (fun () -> DB.build_pi ~page_size g)
  | "ci-chaos-r3" ->
      let db, build_s = build (fun () -> DB.build_ci ~page_size g) in
      let rset, server_s =
        create (fun () -> RS.create ~mode:`Pyramid ~cost ~key ~replicas:3 (DB.files db))
      in
      arm_chaos ();
      { graph_s; build_s; server_s;
        servers = List.init (RS.width rset) (RS.server rset);
        dbs = [ db ];
        step = chaos_step ~rset ~db ~cost g seed;
        slo_rate_qph = closed_loop_capacity }
  | "serve-burst" ->
      let dbs, build_s =
        build (fun () -> [ ("ci", DB.build_ci ~page_size g); ("pi", DB.build_pi ~page_size g) ])
      in
      let tenants, server_s =
        create (fun () ->
            List.map (fun (name, db) -> { Sched.name; server = pyramid cost db; graph = g }) dbs)
      in
      { graph_s; build_s; server_s;
        servers = List.map (fun (tn : Sched.tenant) -> tn.Sched.server) tenants;
        dbs = List.map snd dbs;
        step = serve_step ~tenants ~dbs g seed;
        slo_rate_qph = (fun _ -> slo_sweep ~dbs ~cost g seed) }
  | _ -> invalid_arg ("unknown workload " ^ name)
