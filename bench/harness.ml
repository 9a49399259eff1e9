(* Shared infrastructure for the experiment harness: the scaled
   environment, graph/database caches, workload execution and table
   rendering.

   Scaling: the paper's pre-computation ran offline for its six full
   networks.  We divide node/edge counts by [scale] (default 8) and
   divide the PIR interface's 2.5 GByte file cap by the same factor, so
   every relative comparison — who wins, where a scheme becomes
   infeasible, how packing/compression move the curves — reproduces at
   a size where the whole suite builds in minutes.  Run with
   [--scale 1] for the full published sizes (hours of pre-computation). *)

module G = Psp_graph.Graph
module DB = Psp_index.Database
module PF = Psp_storage.Page_file
module CM = Psp_pir.Cost_model
module QP = Psp_index.Query_plan
open Psp_core

type env = {
  scale : float;
  queries : int;
  seed : int;
  page_size : int;
  cost : CM.t;           (** cost model with the scaled file cap *)
  full_limit : int;      (** the scaled "2.5 GByte" in bytes *)
}

let make_env ?(scale = 8.0) ?(queries = 200) ?(seed = 2012) () =
  let base = CM.ibm4764 in
  let full_limit = int_of_float (2.5e9 /. scale) in
  { scale;
    queries;
    seed;
    page_size = base.CM.page_size;
    cost = CM.with_max_file base ~bytes:full_limit;
    full_limit }

let key = Psp_crypto.Sha256.digest_string "psp-bench"

(* ------------------------------------------------------------------ *)
(* Caches: graphs, workloads and prepared pre-computations are shared
   across experiments. *)

let graph_cache : (Psp_netgen.Presets.name, G.t) Hashtbl.t = Hashtbl.create 8

let graph env preset =
  match Hashtbl.find_opt graph_cache preset with
  | Some g -> g
  | None ->
      let g = Psp_netgen.Presets.graph ~scale:env.scale preset in
      Hashtbl.replace graph_cache preset g;
      g

let workload_cache : (Psp_netgen.Presets.name, (int * int) array) Hashtbl.t =
  Hashtbl.create 8

let workload env preset =
  match Hashtbl.find_opt workload_cache preset with
  | Some w -> w
  | None ->
      let w =
        Psp_netgen.Synthetic.random_queries (graph env preset) ~count:env.queries
          ~seed:env.seed
      in
      Hashtbl.replace workload_cache preset w;
      w

let prepared_cache : (Psp_netgen.Presets.name, DB.prepared) Hashtbl.t = Hashtbl.create 8

let prepared env preset =
  match Hashtbl.find_opt prepared_cache preset with
  | Some p -> p
  | None ->
      let p = DB.prepare ~page_size:env.page_size (graph env preset) in
      Hashtbl.replace prepared_cache preset p;
      p

(* ------------------------------------------------------------------ *)
(* Workload execution *)

type measurement = {
  time : Response_time.t;         (** mean per-query response breakdown *)
  space_bytes : int;              (** whole database *)
  data_fetches : int;             (** plan: private pages from the data file *)
  index_fetches : int;            (** plan: private pages from the index file *)
  data_pages : int;
  index_pages : int;
  correct : int;                  (** queries matching the Dijkstra oracle *)
  total : int;
  retries : int;                  (** recovery attempts across the workload *)
  recovery_seconds : float;       (** total simulated backoff spent recovering *)
  unavailable : int;              (** queries that exhausted the retry budget *)
}

exception Infeasible of string
(** A file exceeds what the (scaled) PIR interface supports. *)

(* ------------------------------------------------------------------ *)
(* Bench-run registry: every [run] call records its per-query latency
   samples here, and the driver dumps them (plus the lib/obs snapshot)
   to BENCH_<experiment>.json after each experiment. *)

type run_record = {
  r_label : string;               (** "<scheme>:<network>" *)
  r_samples : float array;        (** per-query simulated response, seconds *)
  r_fetches_per_query : int;      (** plan: private page fetches per query *)
  r_retries : int;
  r_recovery_seconds : float;
  r_unavailable : int;
  r_correct : int;
  r_total : int;
  r_exec_touches : int;           (** executed oblivious-store slot touches *)
  r_level_scans : int;            (** executed merged level scans / sweeps *)
  r_rewritten : int;              (** slots rewritten by executed flush rebuilds *)
}

let bench_runs : run_record list ref = ref []
let reset_runs () = bench_runs := []

let feasible env db =
  List.for_all (fun f -> PF.size_bytes f <= env.full_limit) (DB.files db)

let check_feasible env db =
  List.iter
    (fun f ->
      if PF.size_bytes f > env.full_limit then
        raise
          (Infeasible
             (Printf.sprintf "file %s is %.1f MB > %.1f MB cap" (PF.name f)
                (float_of_int (PF.size_bytes f) /. 1e6)
                (float_of_int env.full_limit /. 1e6))))
    (DB.files db)

let plan_fetches db =
  let fetches = QP.pir_fetches db.DB.header.Psp_index.Header.plan in
  let get name = Option.value ~default:0 (List.assoc_opt name fetches) in
  match db.DB.scheme with
  | "HY" -> (get "combined", 0)
  | _ -> (get "data", get "index")

(* One workload's tally, shared by every experiment that serves
   queries: each answer is checked against the Dijkstra oracle on the
   true graph, and retries, recovery time and unavailable results are
   summed.  [record] files the tally as a bench run. *)
type tally = {
  oracle : G.t;
  mutable latencies : float list;  (* per-query seconds, reversed *)
  mutable total : int;
  mutable correct : int;
  mutable retries : int;
  mutable recovery : float;
  mutable unavailable : int;
}

let tally oracle =
  { oracle; latencies = []; total = 0; correct = 0; retries = 0; recovery = 0.0;
    unavailable = 0 }

(* [failovers] and [failover_seconds] add a replicated query's
   whole-plan replays to its retries and recovery. *)
let count tl ?(failovers = 0) ?(failover_seconds = 0.0) ~latency (s, t)
    (r : Client.result) =
  let stats = r.Client.stats in
  tl.latencies <- latency :: tl.latencies;
  tl.total <- tl.total + 1;
  tl.retries <- tl.retries + stats.Psp_pir.Server.Session.retries + failovers;
  tl.recovery <-
    tl.recovery +. stats.Psp_pir.Server.Session.recovery_seconds +. failover_seconds;
  (match r.Client.status with
  | Client.Unavailable _ -> tl.unavailable <- tl.unavailable + 1
  | _ -> ());
  let truth = Psp_graph.Dijkstra.distance tl.oracle s t in
  match r.Client.path with
  | Some (_, got) when Float.abs (got -. truth) <= 1e-3 *. Float.max 1.0 truth ->
      tl.correct <- tl.correct + 1
  | _ -> ()

(* A query that never ran: unavailable, with no latency sample. *)
let count_outage tl =
  tl.total <- tl.total + 1;
  tl.unavailable <- tl.unavailable + 1

(* [servers] contribute their executed store work (none for replica
   sets, whose stores are not sampled). *)
let record tl ~label ~db ?(servers = []) () =
  let data_fetches, index_fetches = plan_fetches db in
  let sum f = List.fold_left (fun acc server -> acc + f server) 0 servers in
  let run =
    { r_label = label;
      r_samples = Array.of_list (List.rev tl.latencies);
      r_fetches_per_query = data_fetches + index_fetches;
      r_retries = tl.retries;
      r_recovery_seconds = tl.recovery;
      r_unavailable = tl.unavailable;
      r_correct = tl.correct;
      r_total = tl.total;
      r_exec_touches = sum Psp_pir.Server.executed_slot_touches;
      r_level_scans = sum Psp_pir.Server.executed_level_scans;
      r_rewritten = sum Psp_pir.Server.executed_rewritten_slots }
  in
  bench_runs := run :: !bench_runs;
  run

(* Run the workload against a database and aggregate the paper's
   metrics. *)
let run env preset db =
  check_feasible env db;
  let g = graph env preset in
  let server = Psp_pir.Server.create ~cost:env.cost ~key (DB.files db) in
  let queries = workload env preset in
  let tl = tally g in
  let times = ref [] in
  Array.iter
    (fun (s, t) ->
      (* replay any armed fault schedule identically for every query, so
         workloads under injection stay trace-indistinguishable *)
      if Psp_fault.Fault.active () then Psp_fault.Fault.rewind ();
      let r = Client.query_nodes server g s t in
      let time = Response_time.of_result r in
      times := time :: !times;
      count tl ~latency:(Response_time.total time) (s, t) r)
    queries;
  (* `Simulated servers execute no store passes; the batch experiment's
     `Pyramid runs fill these in. *)
  ignore
    (record tl
       ~label:(Printf.sprintf "%s:%s" db.DB.scheme (Psp_netgen.Presets.short_name preset))
       ~db ~servers:[ server ] ());
  let data_fetches, index_fetches = plan_fetches db in
  { time = Response_time.mean !times;
    space_bytes = DB.total_bytes db;
    data_fetches;
    index_fetches;
    data_pages = PF.page_count db.DB.data;
    index_pages = (match db.DB.index with Some f -> PF.page_count f | None -> 0);
    correct = tl.correct;
    total = tl.total;
    retries = tl.retries;
    recovery_seconds = tl.recovery;
    unavailable = tl.unavailable }

(* ------------------------------------------------------------------ *)
(* Baseline tuning (§7.2): pick the parameter giving the best response
   time, like the paper does per network. *)

let build_lm env preset ~anchors =
  let g = graph env preset in
  let db, _ = DB.build_lm ~anchors ~seed:env.seed ~page_size:env.page_size g in
  Calibrate.lm db ~queries:(workload env preset)

let build_af env preset ~target_regions =
  let g = graph env preset in
  let db, _ = DB.build_af ~target_regions ~page_size:env.page_size g in
  Calibrate.af db ~queries:(workload env preset)

let lm_sweep = [ 1; 2; 3; 5; 8; 10; 15; 20 ]
let af_sweep = [ 4; 6; 8; 12; 16; 24 ]

let tuned_cache : (string * Psp_netgen.Presets.name, DB.t) Hashtbl.t = Hashtbl.create 8

(* Response time is plan-determined (every query is padded to the same
   page budget), so tuning sweeps measure a single query. *)
let quick_response env preset db =
  check_feasible env db;
  let g = graph env preset in
  let server = Psp_pir.Server.create ~cost:env.cost ~key (DB.files db) in
  let s, t = (workload env preset).(0) in
  Response_time.total (Response_time.of_result (Client.query_nodes server g s t))

(* The sweep parameter with the best response time, cached per scheme
   and network. *)
let tuned env preset ~scheme ~build sweep =
  match Hashtbl.find_opt tuned_cache (scheme, preset) with
  | Some db -> db
  | None ->
      let best =
        List.fold_left
          (fun best param ->
            let db = build param in
            let t = quick_response env preset db in
            match best with
            | Some (_, bt) when bt <= t -> best
            | _ -> Some (db, t))
          None sweep
      in
      let db = fst (Option.get best) in
      Hashtbl.replace tuned_cache (scheme, preset) db;
      db

let tuned_lm env preset =
  tuned env preset ~scheme:"LM" lm_sweep ~build:(fun anchors ->
      build_lm env preset ~anchors)

let tuned_af env preset =
  tuned env preset ~scheme:"AF" af_sweep ~build:(fun target_regions ->
      build_af env preset ~target_regions)

(* HY and PI* tuning (§7.5): smallest parameter whose index file stays
   within the (scaled) PIR size cap. *)

let tuned_hy env preset =
  match Hashtbl.find_opt tuned_cache ("HY", preset) with
  | Some db -> db
  | None ->
      let p = prepared env preset in
      let m = DB.prepared_max_cardinality p in
      let g = graph env preset in
      let candidates =
        List.sort_uniq compare [ max 1 (m / 10); max 1 (m / 4); max 1 (m / 2); m ]
      in
      (* best response time among the thresholds whose files fit *)
      let best =
        List.fold_left
          (fun best threshold ->
            let db = DB.build_hy ~prepared:p ~threshold ~page_size:env.page_size g in
            if not (feasible env db) then best
            else begin
              let t = quick_response env preset db in
              match best with
              | Some (_, bt) when bt <= t -> best
              | _ -> Some (db, t)
            end)
          None candidates
      in
      let db =
        match best with
        | Some (db, _) -> db
        | None -> DB.build_hy ~prepared:p ~threshold:m ~page_size:env.page_size g
      in
      Hashtbl.replace tuned_cache ("HY", preset) db;
      db

let tuned_pi_star env preset =
  match Hashtbl.find_opt tuned_cache ("PI*", preset) with
  | Some db -> db
  | None ->
      let g = graph env preset in
      let rec first cluster =
        if cluster > 20 then
          raise (Infeasible "PI*: no cluster size within the file cap")
        else begin
          let db = DB.build_pi_star ~cluster ~page_size:env.page_size g in
          if feasible env db then db else first (cluster + 1)
        end
      in
      (* smallest feasible cluster; response rises monotonically with it *)
      let db = first 2 in
      Hashtbl.replace tuned_cache ("PI*", preset) db;
      db

(* ------------------------------------------------------------------ *)
(* Rendering *)

let mb bytes = float_of_int bytes /. 1e6

(* Optional CSV sink: every printed table is also appended there as
   "<section>,<subsection>,<col>=<cell>,..." rows for plotting. *)
let csv_channel : out_channel option ref = ref None
let csv_section = ref ""
let csv_subsection = ref ""

let set_csv path =
  csv_channel := Some (open_out path)

let close_csv () =
  match !csv_channel with
  | Some oc ->
      close_out_noerr oc;
      csv_channel := None
  | None -> ()

let csv_escape cell =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') cell then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
  else cell

let header_line title =
  csv_section := title;
  csv_subsection := "";
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subheader title =
  csv_subsection := title;
  Printf.printf "\n-- %s --\n" title

let print_row fmt = Printf.printf fmt

let table ~columns rows =
  (match !csv_channel with
  | Some oc ->
      List.iter
        (fun row ->
          output_string oc
            (String.concat ","
               (csv_escape !csv_section :: csv_escape !csv_subsection
               :: List.map csv_escape row));
          output_char oc '\n')
        rows;
      flush oc
  | None -> ());
  let widths =
    List.mapi
      (fun i c -> List.fold_left (fun w row -> max w (String.length (List.nth row i))) (String.length c) rows)
      columns
  in
  let print_cells cells =
    List.iteri
      (fun i cell -> Printf.printf "%-*s  " (List.nth widths i) cell)
      cells;
    print_newline ()
  in
  print_cells columns;
  print_cells (List.map (fun w -> String.make w '-') widths);
  List.iter print_cells rows

let seconds v = Printf.sprintf "%.2f" v
let megabytes v = Printf.sprintf "%.2f" (mb v)

(* ------------------------------------------------------------------ *)
(* JSON artifacts: one BENCH_<experiment>.json per experiment, holding
   each run's throughput and latency quantiles plus the full lib/obs
   snapshot.  EXPERIMENTS.md ("Telemetry columns") documents the
   format; CI validates it against a schema. *)

module J = Psp_obs.Json

(* nearest-rank percentile ([p] in [0,100]); nan for a run that
   served no query *)
let percentile xs p = if Array.length xs = 0 then nan else Psp_util.Stats.percentile xs p

let run_json r =
  let sorted = Array.copy r.r_samples in
  Array.sort compare sorted;
  let sum = Array.fold_left ( +. ) 0.0 r.r_samples in
  let n = Array.length r.r_samples in
  J.Obj
    [ ("label", J.String r.r_label);
      ("queries", J.Int n);
      ("correct", J.Int r.r_correct);
      ("fetches_per_query", J.Int r.r_fetches_per_query);
      ("throughput_qps",
       J.Float (if sum > 0.0 then float_of_int n /. sum else 0.0));
      ("latency_seconds",
       J.Obj
         [ ("mean", J.Float (if n = 0 then nan else sum /. float_of_int n));
           ("p50", J.Float (percentile sorted 50.0));
           ("p95", J.Float (percentile sorted 95.0));
           ("p99", J.Float (percentile sorted 99.0));
           ("min", J.Float (if n = 0 then nan else sorted.(0)));
           ("max", J.Float (if n = 0 then nan else sorted.(n - 1))) ]);
      ("retries", J.Int r.r_retries);
      ("recovery_seconds", J.Float r.r_recovery_seconds);
      ("unavailable", J.Int r.r_unavailable);
      ("executed_slot_touches", J.Int r.r_exec_touches);
      ("level_scans", J.Int r.r_level_scans);
      ("rewritten_slots", J.Int r.r_rewritten) ]

let write_bench env ~experiment =
  let path = Printf.sprintf "BENCH_%s.json" experiment in
  let doc =
    J.Obj
      [ ("schema", J.String "psp-bench/1");
        ("experiment", J.String experiment);
        ("scale", J.Float env.scale);
        ("queries_per_workload", J.Int env.queries);
        ("seed", J.Int env.seed);
        ("page_size", J.Int env.page_size);
        ("runs", J.List (List.rev_map run_json !bench_runs));
        ("metrics", Psp_obs.Obs.to_json ()) ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (J.to_string_pretty doc);
      output_char oc '\n');
  path
