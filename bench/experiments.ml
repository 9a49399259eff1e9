(* One function per table/figure of the paper's evaluation (§7).
   Every function prints the same rows/series the paper reports;
   EXPERIMENTS.md records the paper-vs-measured comparison. *)

module G = Psp_graph.Graph
module DB = Psp_index.Database
module PF = Psp_storage.Page_file
module CM = Psp_pir.Cost_model
module QP = Psp_index.Query_plan
module P = Psp_netgen.Presets
open Psp_core
open Harness

let small_networks = [ P.Oldenburg; P.Germany; P.Argentina ]
let large_networks = [ P.Denmark; P.India; P.North_america ]

(* ------------------------------------------------------------------ *)

let table1 env =
  header_line "Table 1: Road networks";
  let rows =
    List.map
      (fun p ->
        let g = graph env p in
        [ P.full_name p;
          string_of_int (P.paper_nodes p);
          string_of_int (P.paper_edges p);
          string_of_int (G.node_count g);
          string_of_int (G.edge_count g / 2) ])
      (Array.to_list P.all)
  in
  table
    ~columns:
      [ "Network"; "paper nodes"; "paper edges"; Printf.sprintf "nodes (/%.0f)" env.scale;
        Printf.sprintf "streets (/%.0f)" env.scale ]
    rows

let table2 env =
  header_line "Table 2: System specifications (cost model)";
  let c = CM.ibm4764 in
  table ~columns:[ "parameter"; "value" ]
    [ [ "disk page size"; Printf.sprintf "%d B" c.CM.page_size ];
      [ "disk seek time"; Printf.sprintf "%.0f ms" (c.CM.disk_seek *. 1e3) ];
      [ "disk read/write rate"; Printf.sprintf "%.0f MB/s" (c.CM.disk_rate /. 1e6) ];
      [ "SCP read/write rate"; Printf.sprintf "%.0f MB/s" (c.CM.scp_io_rate /. 1e6) ];
      [ "SCP encryption rate"; Printf.sprintf "%.0f MB/s" (c.CM.scp_crypto_rate /. 1e6) ];
      [ "communication bandwidth"; Printf.sprintf "%.0f KB/s" (c.CM.bandwidth /. 1e3) ];
      [ "communication RTT"; Printf.sprintf "%.0f ms" (c.CM.rtt *. 1e3) ];
      [ "SCP memory"; Printf.sprintf "%d MB" (c.CM.scp_memory / 1024 / 1024) ];
      [ "derived: one secure page op"; Printf.sprintf "%.2f ms" (CM.page_op_seconds c *. 1e3) ];
      [ "derived: PIR fetch, 1 GB file";
        Printf.sprintf "%.2f s" (CM.pir_fetch_seconds c ~file_pages:(1_000_000_000 / 4096)) ];
      [ "derived: max file (c*sqrt N)";
        Printf.sprintf "%.2f GB" (float_of_int (CM.max_file_bytes c) /. 1e9) ];
      [ "scaled max file (this run)"; Printf.sprintf "%.1f MB" (mb env.full_limit) ] ]

(* ------------------------------------------------------------------ *)

let figure5 env =
  header_line "Figure 5: LM fine-tuning (Argentina)";
  let preset = P.Argentina in
  let rows =
    List.map
      (fun anchors ->
        let db = build_lm env preset ~anchors in
        let t = quick_response env preset db in
        [ string_of_int anchors; seconds t; megabytes (DB.total_bytes db) ])
      lm_sweep
  in
  table ~columns:[ "landmarks"; "response time (s)"; "space (MB)" ] rows

let scheme_row env preset name db =
  let m = run env preset db in
  [ name;
    seconds (Response_time.total m.time);
    seconds m.time.Response_time.pir_seconds;
    seconds m.time.Response_time.comm_seconds;
    Printf.sprintf "%.3f" m.time.Response_time.client_seconds;
    Printf.sprintf "%d of %d" m.data_fetches m.data_pages;
    Printf.sprintf "%d of %d" m.index_fetches m.index_pages;
    megabytes m.space_bytes;
    Printf.sprintf "%d/%d" m.correct m.total ]

let columns_t3 =
  [ "method"; "response (s)"; "PIR (s)"; "comm (s)"; "client (s)"; "Fd pages";
    "Fi pages"; "space (MB)"; "correct" ]

let table3 env =
  header_line "Table 3: Components of response time (Argentina)";
  let preset = P.Argentina in
  let p = prepared env preset in
  let g = graph env preset in
  let rows =
    [ scheme_row env preset "AF" (tuned_af env preset);
      scheme_row env preset "LM" (tuned_lm env preset);
      scheme_row env preset "CI" (DB.build_ci ~prepared:p ~page_size:env.page_size g);
      scheme_row env preset "PI" (DB.build_pi ~prepared:p ~page_size:env.page_size g) ]
  in
  table ~columns:columns_t3 rows

let figure6 env =
  header_line "Figure 6: OBF vs obfuscation set size (Argentina)";
  let preset = P.Argentina in
  let g = graph env preset in
  let p = prepared env preset in
  let ci = quick_response env preset (DB.build_ci ~prepared:p ~page_size:env.page_size g) in
  let pi = quick_response env preset (DB.build_pi ~prepared:p ~page_size:env.page_size g) in
  let obf = Obf.create ~cost:env.cost ~seed:env.seed g in
  let sample = Array.sub (workload env preset) 0 (min 20 env.queries) in
  let rows =
    List.map
      (fun set_size ->
        let times =
          Array.to_list
            (Array.map
               (fun (s, t) -> fst (Obf.query obf ~set_size ~s ~t_node:t))
               sample)
        in
        [ string_of_int set_size;
          seconds (Response_time.total (Response_time.mean times)) ])
      [ 20; 30; 40; 50; 60; 70; 80; 90; 100 ]
  in
  table ~columns:[ "|S| = |T|"; "OBF response (s)" ] rows;
  Printf.printf "reference lines: CI = %.2f s, PI = %.2f s\n" ci pi

let figure7 env =
  header_line "Figure 7: AF / LM / CI / PI across road networks";
  List.iter
    (fun preset ->
      subheader (P.short_name preset);
      let p = prepared env preset in
      let g = graph env preset in
      table ~columns:columns_t3
        [ scheme_row env preset "AF" (tuned_af env preset);
          scheme_row env preset "LM" (tuned_lm env preset);
          scheme_row env preset "CI" (DB.build_ci ~prepared:p ~page_size:env.page_size g);
          scheme_row env preset "PI" (DB.build_pi ~prepared:p ~page_size:env.page_size g) ])
    small_networks

let figure8 env =
  header_line "Figure 8: Effect of packed partitioning (CI/PI vs CI-P/PI-P)";
  List.iter
    (fun preset ->
      subheader (P.short_name preset);
      let g = graph env preset in
      let p = prepared env preset in
      let variants =
        [ ("CI", DB.build_ci ~prepared:p ~page_size:env.page_size g);
          ("CI-P", DB.build_ci ~packed:false ~page_size:env.page_size g);
          ("PI", DB.build_pi ~prepared:p ~page_size:env.page_size g);
          ("PI-P", DB.build_pi ~packed:false ~page_size:env.page_size g) ]
      in
      let rows =
        List.map
          (fun (name, db) ->
            let util = 100.0 *. PF.utilization db.DB.data in
            let t = quick_response env preset db in
            [ name; Printf.sprintf "%.1f%%" util; seconds t; megabytes (DB.total_bytes db) ])
          variants
      in
      table ~columns:[ "method"; "Fd utilization"; "response (s)"; "space (MB)" ] rows)
    small_networks

let figure9 env =
  header_line "Figure 9: Effect of index compression (CI/PI vs CI-C/PI-C)";
  List.iter
    (fun preset ->
      subheader (P.short_name preset);
      let g = graph env preset in
      let p = prepared env preset in
      let variants =
        [ ("CI", lazy (DB.build_ci ~prepared:p ~page_size:env.page_size g));
          ("CI-C", lazy (DB.build_ci ~prepared:p ~compress:false ~page_size:env.page_size g));
          ("PI", lazy (DB.build_pi ~prepared:p ~page_size:env.page_size g));
          ("PI-C", lazy (DB.build_pi ~prepared:p ~compress:false ~page_size:env.page_size g)) ]
      in
      let rows =
        List.map
          (fun (name, db) ->
            let db = Lazy.force db in
            if feasible env db then
              [ name; seconds (quick_response env preset db); megabytes (DB.total_bytes db) ]
            else [ name; "Nil"; megabytes (DB.total_bytes db) ])
          variants
      in
      table ~columns:[ "method"; "response (s)"; "space (MB)" ] rows)
    small_networks

let figure10 env =
  header_line "Figure 10: HY on Denmark";
  let preset = P.Denmark in
  let g = graph env preset in
  let p = prepared env preset in
  subheader "(a) distribution of |S_ij| in CI";
  let histogram = DB.prepared_histogram p in
  let m = Array.length histogram - 1 in
  let buckets = 10 in
  let width = max 1 ((m / buckets) + 1) in
  let rows = ref [] in
  for b = 0 to buckets - 1 do
    let lo = b * width and hi = min m ((b + 1) * width - 1) in
    if lo <= m then begin
      let count = ref 0 in
      for c = lo to hi do
        if c < Array.length histogram then count := !count + histogram.(c)
      done;
      rows := [ Printf.sprintf "%d-%d" lo hi; string_of_int !count ] :: !rows
    end
  done;
  table ~columns:[ "|S_ij|"; "pairs" ] (List.rev !rows);
  Printf.printf "max |S_ij| (m) = %d\n" m;
  subheader "(b,c) HY vs cardinality threshold";
  let ci = DB.build_ci ~prepared:p ~page_size:env.page_size g in
  let thresholds =
    List.sort_uniq compare (List.init 10 (fun i -> max 1 (m * (i + 1) / 10)))
  in
  let rows =
    List.map
      (fun threshold ->
        let db = DB.build_hy ~prepared:p ~threshold ~page_size:env.page_size g in
        let time = if feasible env db then seconds (quick_response env preset db) else "Nil" in
        [ string_of_int threshold; time; megabytes (DB.total_bytes db) ])
      thresholds
  in
  table ~columns:[ "threshold on |S_ij|"; "response (s)"; "space (MB)" ] rows;
  Printf.printf "reference: CI = %.2f s, %.2f MB; DB size limit = %.1f MB\n"
    (quick_response env preset ci)
    (mb (DB.total_bytes ci))
    (mb env.full_limit)

let figure11 env =
  header_line "Figure 11: PI* vs cluster size (Denmark)";
  let preset = P.Denmark in
  let g = graph env preset in
  let p = prepared env preset in
  let ci = DB.build_ci ~prepared:p ~page_size:env.page_size g in
  let rows =
    List.map
      (fun cluster ->
        let db = DB.build_pi_star ~cluster ~page_size:env.page_size g in
        let time = if feasible env db then seconds (quick_response env preset db) else "Nil" in
        [ string_of_int cluster; time; megabytes (DB.total_bytes db) ])
      [ 2; 4; 6; 8; 10; 12; 14; 16; 18; 20 ]
  in
  table ~columns:[ "cluster pages"; "response (s)"; "space (MB)" ] rows;
  Printf.printf "reference: CI = %.2f s, %.2f MB; DB size limit = %.1f MB\n"
    (quick_response env preset ci)
    (mb (DB.total_bytes ci))
    (mb env.full_limit)

let figure12 env =
  header_line "Figure 12: CI / HY / PI* on larger networks";
  List.iter
    (fun preset ->
      subheader (P.short_name preset);
      let g = graph env preset in
      let p = prepared env preset in
      let entries =
        [ ("CI", DB.build_ci ~prepared:p ~page_size:env.page_size g);
          ("HY", tuned_hy env preset);
          ("PI*", tuned_pi_star env preset) ]
      in
      let rows =
        List.map
          (fun (name, db) ->
            let m = run env preset db in
            [ name;
              seconds (Response_time.total m.time);
              megabytes m.space_bytes;
              Printf.sprintf "%d/%d" m.correct m.total ])
          entries
      in
      table ~columns:[ "method"; "response (s)"; "space (MB)"; "correct" ] rows)
    large_networks

(* ------------------------------------------------------------------ *)
(* Extra ablations beyond the paper *)

let extras env =
  header_line "Extras: page-size sensitivity of CI (Argentina)";
  let preset = P.Argentina in
  let g = graph env preset in
  let rows =
    List.map
      (fun page_size ->
        let db = DB.build_ci ~page_size g in
        let cost = CM.with_max_file { env.cost with CM.page_size } ~bytes:env.full_limit in
        let env' = { env with page_size; cost } in
        [ string_of_int page_size;
          seconds (quick_response env' preset db);
          megabytes (DB.total_bytes db);
          string_of_int db.DB.header.Psp_index.Header.region_count ])
      [ 1024; 2048; 4096; 8192 ]
  in
  table ~columns:[ "page size (B)"; "response (s)"; "space (MB)"; "regions" ] rows;
  header_line "Extras: PI vs a full-scan trivial PIR bound (Argentina)";
  (* trivial PIR streams the whole database per query: the information-
     theoretic baseline the amortized protocol is compared against *)
  let p = prepared env preset in
  let pi = DB.build_pi ~prepared:p ~page_size:env.page_size g in
  let db_bytes = DB.total_bytes pi in
  let scan_seconds =
    float_of_int db_bytes /. CM.ibm4764.CM.disk_rate
    +. (float_of_int db_bytes /. CM.ibm4764.CM.scp_crypto_rate)
  in
  Printf.printf "PI per-query PIR time: %.2f s; trivial scan of the %.1f MB DB: %.2f s\n"
    (quick_response env preset pi) (mb db_bytes) scan_seconds;
  Printf.printf "(at the paper's full 1.1 GB PI index, the scan alone would take ~2 min)\n";
  header_line "Extras: approximate schemes (future work, Argentina)";
  (* epsilon-quantized weights: smaller DBs, answers within (1+eps) *)
  let g = graph env preset in
  let queries = Array.sub (workload env preset) 0 (min 100 env.queries) in
  let rows =
    List.map
      (fun epsilon ->
        let db = DB.build_pi ~prepared:p ~epsilon ~page_size:env.page_size g in
        let server = Psp_pir.Server.create ~cost:env.cost ~key (DB.files db) in
        let worst = ref 0.0 in
        Array.iter
          (fun (s, t) ->
            let truth = Psp_graph.Dijkstra.distance g s t in
            match (Client.query_nodes server g s t).Client.path with
            | Some (_, got) when truth > 0.0 ->
                worst := Float.max !worst ((got -. truth) /. truth)
            | _ -> ())
          queries;
        [ Printf.sprintf "%.3f" epsilon;
          megabytes (DB.total_bytes db);
          Printf.sprintf "%.3f%%" (100.0 *. !worst);
          seconds (quick_response env preset db) ])
      [ 0.0; 0.01; 0.05; 0.1 ]
  in
  table
    ~columns:[ "epsilon"; "PI space (MB)"; "worst deviation"; "response (s)" ]
    rows;
  header_line "Extras: response time is workload-independent (CI, Argentina)";
  (* the fixed query plan makes every query cost the same, whatever the
     access pattern - the property obfuscation schemes lack *)
  let ci = DB.build_ci ~prepared:p ~page_size:env.page_size g in
  let server = Psp_pir.Server.create ~cost:env.cost ~key (DB.files ci) in
  let rows =
    List.map
      (fun dist ->
        let qs = Psp_netgen.Workload.generate g dist ~count:40 ~seed:env.seed in
        let times = ref [] and fingerprints = ref [] in
        Array.iter
          (fun (s, t) ->
            let r = Client.query_nodes server g s t in
            times := Response_time.of_result r :: !times;
            fingerprints :=
              Psp_pir.Trace.fingerprint r.Client.stats.Psp_pir.Server.Session.trace
              :: !fingerprints)
          qs;
        let mean = Response_time.mean !times in
        [ Psp_netgen.Workload.describe dist;
          seconds (Response_time.total mean);
          string_of_int (List.length (List.sort_uniq compare !fingerprints)) ])
      [ Psp_netgen.Workload.Uniform;
        Psp_netgen.Workload.Local { radius = 300.0 };
        Psp_netgen.Workload.Commute { hubs = 3 };
        Psp_netgen.Workload.Repeated { distinct = 2 } ]
  in
  table ~columns:[ "workload"; "mean response (s)"; "distinct server views" ] rows

(* ------------------------------------------------------------------ *)
(* Resilience: cost of oblivious retry/recovery under fault injection *)

let resilience env =
  header_line "Resilience: retry counts and recovery overhead under faults";
  let preset = P.Oldenburg in
  let g = graph env preset in
  let entries =
    [ ("CI", DB.build_ci ~page_size:env.page_size g);
      ("PI", DB.build_pi ~page_size:env.page_size g);
      ("HY", tuned_hy env preset);
      ("PI*", tuned_pi_star env preset) ]
  in
  (* every query replays this schedule (Harness.run rewinds it), so the
     injected faults are query-independent and traces stay equal *)
  let schedule = "pir.fetch.transient=hits:2,7 + pir.fetch.corrupt=hits:11" in
  Printf.printf "fault schedule: %s\n" schedule;
  let rows =
    List.map
      (fun (name, db) ->
        let baseline = run env preset db in
        Psp_fault.Fault.arm "pir.fetch.transient" (Psp_fault.Fault.Hits [ 2; 7 ]);
        Psp_fault.Fault.arm "pir.fetch.corrupt" (Psp_fault.Fault.Hits [ 11 ]);
        let faulted = run env preset db in
        Psp_fault.Fault.reset ();
        let base_t = Response_time.total baseline.time in
        let fault_t = Response_time.total faulted.time in
        [ name;
          Printf.sprintf "%d" faulted.retries;
          Printf.sprintf "%.2f" (float_of_int faulted.retries /. float_of_int faulted.total);
          seconds (faulted.recovery_seconds /. float_of_int faulted.total);
          Printf.sprintf "%+.1f%%" (100.0 *. (fault_t -. base_t) /. base_t);
          Printf.sprintf "%d/%d" faulted.correct faulted.total;
          string_of_int faulted.unavailable ])
      entries
  in
  table
    ~columns:
      [ "method"; "retries"; "retries/query"; "recovery (s/query)"; "overhead";
        "correct"; "unavailable" ]
    rows

(* ------------------------------------------------------------------ *)

(* Batched multi-query serving: N same-plan queries walk the plan in
   lockstep (Psp_pir.Batcher), so each round's page requests merge into
   one oblivious-store pass and the log²N pass cost amortizes across the
   batch (Table 2).  The servers run in `Pyramid mode, so the merged
   pass is {e executed} (Pyramid_store.fetch_many), not just simulated:
   the table reports the executed slot touches and level scans per
   query next to the simulated response, and the per-query touch count
   staying flat while scans/query fall ~1/width is the executed-side
   amortization the cost model charges for.  BENCH_batch.json captures
   the same series. *)
let batch env =
  header_line "Batched serving: amortized response vs batch width";
  let preset = P.Oldenburg in
  let g = graph env preset in
  let entries =
    [ ("CI", DB.build_ci ~page_size:env.page_size g); ("HY", tuned_hy env preset) ]
  in
  let widths = [ 1; 2; 4; 8; 16 ] in
  let queries = workload env preset in
  let rows =
    List.concat_map
      (fun (name, db) ->
        check_feasible env db;
        let serve w =
          let server =
            Psp_pir.Server.create ~mode:`Pyramid ~cost:env.cost ~key (DB.files db)
          in
          let tl = tally g in
          let i = ref 0 in
          while !i < Array.length queries do
            let chunk = Array.sub queries !i (min w (Array.length queries - !i)) in
            (* replay any armed fault schedule identically per batch *)
            if Psp_fault.Fault.active () then Psp_fault.Fault.rewind ();
            let rs = Client.query_nodes_batch server g chunk in
            Array.iteri
              (fun k r ->
                count tl ~latency:(Response_time.total (Response_time.of_result r))
                  chunk.(k) r)
              rs;
            i := !i + Array.length chunk
          done;
          record tl
            ~label:
              (Printf.sprintf "%s-b%d:%s" name w (Psp_netgen.Presets.short_name preset))
            ~db ~servers:[ server ] ()
        in
        let base = ref nan in
        List.map
          (fun w ->
            let run = serve w in
            let n = Array.length run.r_samples in
            let sum = Array.fold_left ( +. ) 0.0 run.r_samples in
            let mean = sum /. float_of_int n in
            if w = 1 then base := mean;
            let per q = float_of_int q /. float_of_int n in
            [ Printf.sprintf "%s b=%d" name w;
              seconds mean;
              Printf.sprintf "%.2fx" (!base /. mean);
              Printf.sprintf "%.0f" (3600.0 *. float_of_int n /. sum);
              Printf.sprintf "%.0f" (per run.r_exec_touches);
              Printf.sprintf "%.1f" (per run.r_level_scans);
              Printf.sprintf "%d/%d" run.r_correct n ])
          widths)
      entries
  in
  table
    ~columns:
      [ "method"; "response (s/query)"; "speedup"; "throughput (q/h)";
        "exec touches/q"; "level scans/q"; "correct" ]
    rows

(* ------------------------------------------------------------------ *)

(* Replicated serving under chaos: availability and tail latency as the
   replica count and the per-exchange fault rate grow.  Each query runs
   through {!Client.query_nodes_replicated}: a tampered page or a dead
   replica abandons the whole plan and replays it elsewhere, so the
   sweep measures what the failover machinery buys operationally.
   Unlike the [resilience] experiment, the schedule is NOT rewound per
   query: availability is a property of accumulated faults over a
   workload (the per-query trace-equality proofs live in the test
   suite, which does rewind).  BENCH_replication.json captures every
   series. *)
let replication env =
  header_line "Replication: availability and p99 vs replicas x fault rate";
  let preset = P.Oldenburg in
  let g = graph env preset in
  let db = DB.build_ci ~page_size:env.page_size g in
  check_feasible env db;
  let queries = workload env preset in
  let replica_counts = [ 1; 2; 3 ] and rates = [ 0.0; 0.005; 0.02 ] in
  let serve replicas rate =
    let rset =
      Psp_pir.Replica_set.create ~cost:env.cost ~key ~replicas (DB.files db)
    in
    if rate > 0.0 then begin
      (* chaos mix, seeded so runs reproduce: outages arrive as bursts
         (a flapping host stays down for several exchanges — exactly
         the shape a lone replica cannot ride out but a wider set can),
         tampering and latency spikes as per-exchange coin flips *)
      Psp_fault.Fault.arm "pir.replica.down"
        (Psp_fault.Fault.Flapping
           { up = max 1 (int_of_float (1.0 /. rate)); down = 6 });
      Psp_fault.Fault.arm ~seed:11 "pir.fetch.tamper" (Psp_fault.Fault.Probability rate);
      Psp_fault.Fault.arm ~seed:13 "pir.replica.latency"
        (Psp_fault.Fault.Probability (rate /. 2.0))
    end;
    let tl = tally g in
    Array.iter
      (fun (s, t) ->
        match Client.query_nodes_replicated rset g s t with
        | rep ->
            count tl ~failovers:rep.Client.failovers
              ~failover_seconds:rep.Client.failover_seconds
              ~latency:(Response_time.total (Response_time.of_replicated rep).(0))
              (s, t) rep.Client.results.(0)
        | exception Psp_pir.Replica_set.No_replica_available ->
            (* every breaker open: the query never ran.  Count the
               outage and let a timeout's worth of simulated time pass
               so cooldowns elapse and the set can heal. *)
            count_outage tl;
            Psp_pir.Replica_set.advance rset
              (Psp_pir.Cost_model.timeout_seconds env.cost))
      queries;
    Psp_fault.Fault.reset ();
    record tl
      ~label:
        (Printf.sprintf "%s-r%d-f%.3f:%s" db.DB.scheme replicas rate
           (Psp_netgen.Presets.short_name preset))
      ~db ()
  in
  let rows =
    List.concat_map
      (fun replicas ->
        List.map
          (fun rate ->
            let run = serve replicas rate in
            let n = run.r_total in
            let sorted = Array.copy run.r_samples in
            Array.sort compare sorted;
            [ string_of_int replicas;
              Printf.sprintf "%.3f" rate;
              Printf.sprintf "%.1f%%"
                (100.0 *. float_of_int (n - run.r_unavailable) /. float_of_int n);
              seconds (percentile sorted 0.99);
              string_of_int run.r_retries;
              Printf.sprintf "%d/%d" run.r_correct n ])
          rates)
      replica_counts
  in
  table
    ~columns:
      [ "replicas"; "fault rate"; "availability"; "p99 (s)"; "recoveries"; "correct" ]
    rows

(* ------------------------------------------------------------------ *)

(* Serving runs, shared by [serve] and [pipeline]: the scheduler-driven
   frontend (lib/serve) over a CI and a PI database side by side, one
   bursty arrival stream per tenant, replayed under each
   [(label, width rule, depth)] config on fresh `Pyramid servers.
   Latency is the virtual-clock end-to-end figure: queueing wait plus
   the whole batch's modeled fetch and decode.  Each config records one
   BENCH run labelled [label:<preset>]. *)
type serving_run = {
  sv_report : Psp_serve.Scheduler.report;
  sv_sorted : float array;  (* latencies, ascending *)
  sv_mean : float;
  sv_correct : int;
  sv_overlap : float;  (* the executor's decode/fetch overlap fraction *)
}

let serving env configs =
  let preset = P.Oldenburg in
  let g = graph env preset in
  let tenant_dbs =
    [ ("ci", DB.build_ci ~page_size:env.page_size g);
      ("pi", DB.build_pi ~page_size:env.page_size g) ]
  in
  List.iter (fun (_, db) -> check_feasible env db) tenant_dbs;
  let per_tenant = max 16 (env.queries / 5) in
  let streams =
    List.mapi
      (fun idx (name, _) ->
        ( name,
          Psp_netgen.Synthetic.random_queries g ~count:per_tenant
            ~seed:(env.seed + 1 + idx),
          Psp_netgen.Workload.arrivals
            (Psp_netgen.Workload.Bursts { period = 400.0; mean_size = 6 })
            ~count:per_tenant ~seed:(env.seed + 13 + idx) ))
      tenant_dbs
  in
  let run (label, policy, depth) =
    let cfg =
      { Psp_serve.Scheduler.min_width = 1; max_width = 16; slo = 60.0; policy; depth }
    in
    let tenants =
      List.map
        (fun (name, db) ->
          { Psp_serve.Scheduler.name;
            server =
              Psp_pir.Server.create ~mode:`Pyramid ~cost:env.cost ~key (DB.files db);
            graph = g })
        tenant_dbs
    in
    let jobs = Psp_serve.Scheduler.mix streams in
    let report = Psp_serve.Scheduler.run cfg ~tenants ~jobs in
    let overlap = Psp_obs.Obs.get (Psp_obs.Obs.gauge "pipeline.overlap_fraction") in
    let tl = tally g in
    Array.iter
      (fun (s : Psp_serve.Scheduler.served) ->
        let j = s.Psp_serve.Scheduler.job in
        count tl ~latency:s.Psp_serve.Scheduler.latency
          (j.Psp_serve.Queue.src, j.Psp_serve.Queue.dst)
          s.Psp_serve.Scheduler.result)
      report.Psp_serve.Scheduler.served;
    let recorded =
      record tl
        ~label:(Printf.sprintf "%s:%s" label (Psp_netgen.Presets.short_name preset))
        ~db:(snd (List.hd tenant_dbs))
        ~servers:(List.map (fun tn -> tn.Psp_serve.Scheduler.server) tenants)
        ()
    in
    let samples = recorded.r_samples in
    let sorted = Array.copy samples in
    Array.sort compare sorted;
    { sv_report = report;
      sv_sorted = sorted;
      sv_mean =
        Array.fold_left ( +. ) 0.0 samples /. float_of_int (max 1 (Array.length samples));
      sv_correct = recorded.r_correct;
      sv_overlap = overlap }
  in
  List.map run configs

(* Multi-tenant serving: the adaptive width rule against fill-or-timeout
   batchers at fixed widths 1, 4 and 16 on the same stream, all at
   depth 1; the p95 column is the acceptance bar — adaptive must beat
   every fixed width, because width 1 serializes each burst, width 4
   strands a burst's stragglers until the SLO timeout and width 16
   rarely fills at all.  BENCH_serve.json captures one run per policy. *)
let serve env =
  header_line "Multi-tenant serving: adaptive vs fixed batch width";
  let policies =
    [ ("adaptive", Psp_serve.Scheduler.Adaptive);
      ("fixed-1", Psp_serve.Scheduler.Fixed 1);
      ("fixed-4", Psp_serve.Scheduler.Fixed 4);
      ("fixed-16", Psp_serve.Scheduler.Fixed 16) ]
  in
  let runs =
    serving env (List.map (fun (label, policy) -> ("serve-" ^ label, policy, 1)) policies)
  in
  let rows =
    List.map2
      (fun (label, _) r ->
        let widths =
          List.map
            (fun (b : Psp_serve.Scheduler.batch_record) ->
              b.Psp_serve.Scheduler.b_width)
            r.sv_report.Psp_serve.Scheduler.batches
        in
        [ label;
          seconds (percentile r.sv_sorted 0.50);
          seconds (percentile r.sv_sorted 0.95);
          seconds (percentile r.sv_sorted 0.99);
          Printf.sprintf "%.1f"
            (float_of_int (List.fold_left ( + ) 0 widths)
            /. float_of_int (max 1 (List.length widths)));
          string_of_int (List.length widths);
          Printf.sprintf "%.0f" r.sv_report.Psp_serve.Scheduler.makespan;
          Printf.sprintf "%d/%d" r.sv_correct (Array.length r.sv_sorted) ])
      policies runs
  in
  table
    ~columns:
      [ "policy"; "p50 (s)"; "p95 (s)"; "p99 (s)"; "mean width"; "batches";
        "makespan (s)"; "correct" ]
    rows

(* ------------------------------------------------------------------ *)

(* Pipelined serving: fill-or-timeout widths 4 and 8 at depths 1, 2
   and 4 on the serve stream.  Depth 1 IS the synchronous schedule
   (one batch fully fetches and decodes before the next fetch starts),
   so the depth-1 row is the baseline — [w4 d1] equals [serve]'s
   [fixed-4] row — and deeper rows show what overlapping a batch's PIR
   pass with earlier batches' client-side decode tails buys.  Batch
   composition is depth-independent by construction (the scheduler
   forms batches on a formation clock that ignores the depth), so the
   comparison is pure execution overlap: same batches, same traces,
   same fetch sequence — test/test_pipeline.ml asserts byte-equality;
   this experiment measures the timing side.  The acceptance bar
   (pinned in the tests): at width >= 4, depth >= 2 must beat depth 1
   on mean response.  BENCH_pipeline.json captures one run per
   configuration. *)
let pipeline env =
  header_line "Pipelined serving: decode/fetch overlap vs the synchronous schedule";
  let configs =
    List.concat_map (fun width -> List.map (fun depth -> (width, depth)) [ 1; 2; 4 ]) [ 4; 8 ]
  in
  let runs =
    serving env
      (List.map
         (fun (width, depth) ->
           ( Printf.sprintf "pipeline-w%d-d%d" width depth,
             Psp_serve.Scheduler.Fixed width,
             depth ))
         configs)
  in
  let baseline_mean = Hashtbl.create 4 in
  let rows =
    List.map2
      (fun (width, depth) r ->
        let m = r.sv_mean in
        if depth = 1 then Hashtbl.replace baseline_mean width m;
        let speedup =
          match Hashtbl.find_opt baseline_mean width with
          | Some b when m > 0.0 -> Printf.sprintf "%.2fx" (b /. m)
          | _ -> "-"
        in
        [ Printf.sprintf "w%d d%d" width depth;
          seconds (percentile r.sv_sorted 0.50);
          seconds (percentile r.sv_sorted 0.95);
          seconds m;
          speedup;
          Printf.sprintf "%.0f%%" (100.0 *. r.sv_overlap);
          string_of_int (List.length r.sv_report.Psp_serve.Scheduler.batches);
          Printf.sprintf "%.0f" r.sv_report.Psp_serve.Scheduler.makespan;
          Printf.sprintf "%d/%d" r.sv_correct (Array.length r.sv_sorted) ])
      configs runs
  in
  table
    ~columns:
      [ "config"; "p50 (s)"; "p95 (s)"; "mean (s)"; "vs sync"; "overlap";
        "batches"; "makespan (s)"; "correct" ]
    rows
