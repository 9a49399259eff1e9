(* pspc — command-line front end for the private shortest-path system.

   Subcommands:
     generate   synthesize a road network (or a Table 1 preset) to DIMACS
     build      build a scheme database from a network and report its layout
     query      answer a private shortest-path query end to end
     serve      run a mixed multi-tenant stream through the scheduler-driven
                serving frontend (lib/serve)
     trace      print the adversary's view of a query and check it against
                the published plan
     stats      run sample queries and report the telemetry registry
     inspect    summarize a network's structure
     lint       statically check [@@oblivious] code for secret-dependent
                branches, lengths and effectful calls (see also psplint)

   Networks are passed either as `--preset old --preset-scale 16` or as
   DIMACS files (`--gr map.gr --co map.co`). *)

open Cmdliner
module G = Psp_graph.Graph
module DB = Psp_index.Database
module PF = Psp_storage.Page_file
module Obs = Psp_obs.Obs

(* ------------------------------------------------------------------ *)
(* Shared options *)

let preset_arg =
  let doc = "Use a Table 1 preset network (old/ger/arg/den/ind/nor)." in
  Arg.(value & opt (some string) None & info [ "preset" ] ~doc)

let preset_scale =
  let doc = "Divide the preset's published size by this factor." in
  Arg.(value & opt float 16.0 & info [ "preset-scale" ] ~doc)

let gr_arg =
  let doc = "DIMACS .gr graph file." in
  Arg.(value & opt (some file) None & info [ "gr" ] ~doc)

let co_arg =
  let doc = "DIMACS .co coordinate file." in
  Arg.(value & opt (some file) None & info [ "co" ] ~doc)

let seed_arg =
  let doc = "Random seed." in
  Arg.(value & opt int 2012 & info [ "seed" ] ~doc)

let scheme_arg =
  let doc = "Scheme: CI, PI, HY, PI*, LM or AF." in
  Arg.(value & opt string "CI" & info [ "scheme" ] ~doc)

let page_size_arg =
  let doc = "Disk page size in bytes." in
  Arg.(value & opt int 4096 & info [ "page-size" ] ~doc)

let fault_arg =
  let doc =
    "Arm a failpoint (repeatable).  SPEC is point=schedule with schedule one of \
     never, always, first:N, hits:N,N,..., p:F, flap:U,D — e.g. \
     --fault pir.fetch.transient=hits:2,5 or --fault pir.replica.down=flap:120,2.  \
     See DESIGN.md for the failpoint list."
  in
  Arg.(value & opt_all string [] & info [ "fault" ] ~doc ~docv:"SPEC")

let replicas_arg =
  let doc =
    "Serve through N replicas with authenticated pages and oblivious whole-plan \
     failover (N >= 1; 1 keeps the standalone path)."
  in
  Arg.(value & opt int 1 & info [ "replicas" ] ~doc)

let mode_arg =
  let doc = "Serve through the real pyramid ORAM instead of the simulated store." in
  Arg.(value & vflag `Simulated [ (`Pyramid, info [ "oblivious" ] ~doc) ])

let fault_seed_arg =
  let doc = "Seed for probabilistic (p:F) fault schedules." in
  Arg.(value & opt int 2012 & info [ "fault-seed" ] ~doc)

let metrics_arg =
  let doc = "Print the telemetry registry (lib/obs) after the command finishes." in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let report_metrics metrics =
  if metrics then Format.printf "@.telemetry:@.%a" Obs.pp ()

let arm_faults specs seed =
  Psp_fault.Fault.reset ();
  List.iter
    (fun spec ->
      match Psp_fault.Fault.arm_spec ~seed spec with
      | Ok () -> ()
      | Error e -> failwith (Printf.sprintf "bad --fault %S: %s" spec e))
    specs

let report_status (r : Psp_core.Client.result) =
  match r.Psp_core.Client.status with
  | Psp_core.Client.Served -> ()
  | Psp_core.Client.Degraded { retries } ->
      Printf.printf "  degraded: recovered from faults with %d retries (%.2fs backoff)\n"
        retries r.Psp_core.Client.stats.Psp_pir.Server.Session.recovery_seconds
  | Psp_core.Client.Unavailable { point; attempts } ->
      Printf.printf "  UNAVAILABLE: gave up after %d attempts at failpoint %s\n" attempts
        point
  | Psp_core.Client.Unknown_scheme { scheme } ->
      Printf.printf "  UNKNOWN SCHEME: header announces %S; update this client\n" scheme

(* Degraded-or-better exits 0 (the answer is correct even when recovery
   cost was paid); Unavailable/Unknown exit 3 so fault-matrix CI jobs
   can assert availability. *)
let status_exit (r : Psp_core.Client.result) =
  match r.Psp_core.Client.status with
  | Psp_core.Client.Served | Psp_core.Client.Degraded _ -> 0
  | Psp_core.Client.Unavailable _ | Psp_core.Client.Unknown_scheme _ -> 3

let report_failovers (rep : Psp_core.Client.replicated) =
  if rep.Psp_core.Client.failovers > 0 then begin
    Printf.printf "  failovers: %d (served by replica %d, +%.2fs modeled switch cost)\n"
      rep.Psp_core.Client.failovers rep.Psp_core.Client.replica
      rep.Psp_core.Client.failover_seconds;
    List.iter
      (fun (a : Psp_core.Client.abandoned) ->
        Printf.printf "    abandoned replica %d: %s\n" a.Psp_core.Client.on_replica
          a.Psp_core.Client.reason)
      rep.Psp_core.Client.abandoned
  end

let load_network preset preset_scale gr co seed =
  match (preset, gr, co) with
  | Some name, None, None -> (
      match Psp_netgen.Presets.of_string name with
      | Some p -> Psp_netgen.Presets.graph ~scale:preset_scale ~seed p
      | None -> failwith (Printf.sprintf "unknown preset %S" name))
  | None, Some gr, Some co -> Psp_netgen.Dimacs.parse_files ~gr_path:gr ~co_path:co
  | None, None, None ->
      (* a handy default: a small city-sized network *)
      Psp_netgen.Synthetic.generate
        { Psp_netgen.Synthetic.nodes = 2000;
          edges = 2260;
          width = 4000.0;
          height = 4000.0;
          seed }
  | _ -> failwith "pass either --preset or both --gr and --co"

let build_database g scheme page_size seed =
  let calibration_queries = Psp_netgen.Synthetic.random_queries g ~count:200 ~seed in
  match String.uppercase_ascii scheme with
  | "CI" -> DB.build_ci ~page_size g
  | "PI" -> DB.build_pi ~page_size g
  | "HY" ->
      let p = DB.prepare ~page_size g in
      let threshold = max 1 (DB.prepared_max_cardinality p / 3) in
      DB.build_hy ~prepared:p ~threshold ~page_size g
  | "PI*" | "PISTAR" -> DB.build_pi_star ~cluster:2 ~page_size g
  | "LM" ->
      let db, _ = DB.build_lm ~anchors:5 ~seed ~page_size g in
      Psp_core.Calibrate.lm db ~queries:calibration_queries
  | "AF" ->
      let db, _ = DB.build_af ~target_regions:16 ~page_size g in
      Psp_core.Calibrate.af db ~queries:calibration_queries
  | s -> failwith (Printf.sprintf "unknown scheme %S" s)

(* ------------------------------------------------------------------ *)
(* generate *)

let generate_cmd =
  let out =
    Arg.(value & opt string "network" & info [ "o"; "output" ] ~doc:"Output basename.")
  in
  let nodes = Arg.(value & opt int 2000 & info [ "nodes" ] ~doc:"Node count.") in
  let edges = Arg.(value & opt (some int) None & info [ "edges" ] ~doc:"Street count.") in
  let run preset preset_scale seed out nodes edges =
    let g =
      match preset with
      | Some _ -> load_network preset preset_scale None None seed
      | None ->
          Psp_netgen.Synthetic.generate
            { Psp_netgen.Synthetic.nodes;
              edges = Option.value ~default:(nodes + (nodes / 8)) edges;
              width = 2.0 *. sqrt (float_of_int nodes *. 1000.0);
              height = 2.0 *. sqrt (float_of_int nodes *. 1000.0);
              seed }
    in
    let gr_path = out ^ ".gr" and co_path = out ^ ".co" in
    Psp_netgen.Dimacs.write_files g ~comment:"generated by pspc" ~gr_path ~co_path;
    Printf.printf "wrote %s (%d nodes) and %s (%d directed edges)\n" gr_path
      (G.node_count g) co_path (G.edge_count g)
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Synthesize a road network to DIMACS files")
    Term.(const run $ preset_arg $ preset_scale $ seed_arg $ out $ nodes $ edges)

(* ------------------------------------------------------------------ *)
(* build *)

let build_cmd =
  let save_arg =
    Arg.(value & opt (some string) None
         & info [ "save" ] ~doc:"Persist the built database bundle to this directory.")
  in
  let run preset preset_scale gr co seed scheme page_size save =
    let g = load_network preset preset_scale gr co seed in
    let started = Unix.gettimeofday () in
    let db = build_database g scheme page_size seed in
    let elapsed = Unix.gettimeofday () -. started in
    Printf.printf "built %s database in %.1fs\n" db.DB.scheme elapsed;
    Printf.printf "  network: %d nodes, %d directed edges\n" (G.node_count g)
      (G.edge_count g);
    Printf.printf "  regions: %d (%d border nodes)\n"
      db.DB.header.Psp_index.Header.region_count db.DB.stats.DB.borders_total;
    List.iter
      (fun f ->
        Printf.printf "  file %-9s %6d pages  %8.2f MB  %5.1f%% utilized\n" (PF.name f)
          (PF.page_count f)
          (float_of_int (PF.size_bytes f) /. 1e6)
          (100.0 *. PF.utilization f))
      (DB.files db);
    Printf.printf "  query plan: %s (%d private page fetches per query)\n"
      (Format.asprintf "%a" Psp_index.Query_plan.pp db.DB.header.Psp_index.Header.plan)
      (Psp_index.Query_plan.total_pir_fetches db.DB.header.Psp_index.Header.plan);
    match save with
    | None -> ()
    | Some dir ->
        Psp_index.Bundle.save (Psp_index.Bundle.of_database db) ~dir;
        Printf.printf "  bundle saved to %s/\n" dir
  in
  Cmd.v
    (Cmd.info "build" ~doc:"Build a scheme database and report its layout")
    Term.(
      const run $ preset_arg $ preset_scale $ gr_arg $ co_arg $ seed_arg $ scheme_arg
      $ page_size_arg $ save_arg)

(* ------------------------------------------------------------------ *)
(* query *)

let query_cmd =
  let s_arg = Arg.(value & opt (some int) None & info [ "s" ] ~doc:"Source node id.") in
  let t_arg = Arg.(value & opt (some int) None & info [ "t" ] ~doc:"Destination node id.") in
  let run preset preset_scale gr co seed scheme page_size s t mode replicas faults
      fault_seed metrics =
    if replicas < 1 then failwith "--replicas must be >= 1";
    let g = load_network preset preset_scale gr co seed in
    let db = build_database g scheme page_size seed in
    let cost = Psp_pir.Cost_model.ibm4764 in
    let key = Psp_crypto.Sha256.digest_string "pspc" in
    let serve =
      if replicas = 1 then begin
        let server = Psp_pir.Server.create ~mode ~cost ~key (DB.files db) in
        fun s t ->
          let r = Psp_core.Client.query_nodes server g s t in
          (r, Psp_core.Response_time.of_result r, None)
      end
      else begin
        let rset =
          Psp_pir.Replica_set.create ~mode ~cost ~key ~replicas (DB.files db)
        in
        fun s t ->
          let rep = Psp_core.Client.query_nodes_replicated rset g s t in
          ( rep.Psp_core.Client.results.(0),
            (Psp_core.Response_time.of_replicated rep).(0),
            Some rep )
      end
    in
    arm_faults faults fault_seed;
    Obs.reset ();
    let rng = Psp_util.Rng.create seed in
    let s = Option.value ~default:(Psp_util.Rng.int rng (G.node_count g)) s in
    let t = Option.value ~default:(Psp_util.Rng.int rng (G.node_count g)) t in
    let r, rt, rep = serve s t in
    Psp_fault.Fault.reset ();
    (match r.Psp_core.Client.path with
    | None -> Printf.printf "no path from %d to %d\n" s t
    | Some (nodes, cost) ->
        Printf.printf "%s: path %d -> %d, cost %.2f, %d hops\n" db.DB.scheme s t cost
          (List.length nodes - 1);
        let truth = Psp_graph.Dijkstra.distance g s t in
        Printf.printf "  oracle cost %.2f (%s)\n" truth
          (if Float.abs (cost -. truth) <= 1e-3 *. Float.max 1.0 truth then "match"
           else "MISMATCH"));
    report_status r;
    Option.iter report_failovers rep;
    Format.printf "  simulated response: %a@." Psp_core.Response_time.pp rt;
    report_metrics metrics;
    exit (status_exit r)
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Run one private shortest-path query end to end")
    Term.(
      const run $ preset_arg $ preset_scale $ gr_arg $ co_arg $ seed_arg $ scheme_arg
      $ page_size_arg $ s_arg $ t_arg $ mode_arg $ replicas_arg $ fault_arg
      $ fault_seed_arg $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* batch *)

let batch_cmd =
  let width =
    Arg.(value & opt int 4 & info [ "width" ] ~doc:"Queries per merged batch.")
  in
  let count =
    Arg.(value & opt int 8 & info [ "queries" ] ~doc:"Total queries to serve.")
  in
  let run preset preset_scale gr co seed scheme page_size width count mode faults
      fault_seed metrics =
    if width <= 0 then failwith "--width must be positive";
    let g = load_network preset preset_scale gr co seed in
    let db = build_database g scheme page_size seed in
    let server =
      Psp_pir.Server.create ~mode ~cost:Psp_pir.Cost_model.ibm4764
        ~key:(Psp_crypto.Sha256.digest_string "pspc") (DB.files db)
    in
    arm_faults faults fault_seed;
    Obs.reset ();
    let queries = Psp_netgen.Synthetic.random_queries g ~count ~seed:(seed + 1) in
    let results = ref [] in
    let chunk_start = ref 0 in
    while !chunk_start < count do
      let w = min width (count - !chunk_start) in
      let chunk = Array.sub queries !chunk_start w in
      (* replay the same fault schedule for every batch, as `pspc trace`
         does per query *)
      Psp_fault.Fault.rewind ();
      let rs = Psp_core.Client.query_nodes_batch server g chunk in
      Array.iteri
        (fun i r -> results := ((fst chunk.(i), snd chunk.(i)), r) :: !results)
        rs;
      chunk_start := !chunk_start + w
    done;
    Psp_fault.Fault.reset ();
    let results = List.rev !results in
    let correct = ref 0 and answered = ref 0 in
    let total_response = ref 0.0 in
    List.iter
      (fun ((s, t), (r : Psp_core.Client.result)) ->
        (match r.Psp_core.Client.path with
        | Some (_, cost) ->
            incr answered;
            let truth = Psp_graph.Dijkstra.distance g s t in
            if Float.abs (cost -. truth) <= 1e-3 *. Float.max 1.0 truth then
              incr correct
        | None -> ());
        report_status r;
        total_response :=
          !total_response
          +. Psp_core.Response_time.total (Psp_core.Response_time.of_result r))
      results;
    let traces =
      List.map
        (fun (_, (r : Psp_core.Client.result)) ->
          r.Psp_core.Client.stats.Psp_pir.Server.Session.trace)
        results
    in
    (match Psp_core.Privacy.indistinguishable traces with
    | Ok () ->
        Printf.printf
          "all %d member traces identical: batched queries are indistinguishable\n"
          count
    | Error e -> Printf.printf "PRIVACY VIOLATION: %s\n" e);
    Printf.printf
      "%s: served %d queries in batches of %d: %d answered, %d correct\n"
      db.DB.scheme count width !answered !correct;
    Printf.printf "  amortized simulated response: %.3fs per query\n"
      (!total_response /. float_of_int (max 1 count));
    report_metrics metrics
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Serve many private queries as merged same-plan batches")
    Term.(
      const run $ preset_arg $ preset_scale $ gr_arg $ co_arg $ seed_arg $ scheme_arg
      $ page_size_arg $ width $ count $ mode_arg $ fault_arg $ fault_seed_arg
      $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* serve *)

let serve_cmd =
  let tenants_arg =
    Arg.(value & opt string "ci,pi"
         & info [ "tenants" ] ~docv:"SCHEMES"
             ~doc:"Comma-separated scheme list served side by side (e.g. \
                   $(b,ci,pi)).  Each scheme becomes one tenant database over \
                   the same network.")
  in
  let count =
    Arg.(value & opt int 12 & info [ "queries" ] ~doc:"Queries per tenant.")
  in
  let arrivals_arg =
    Arg.(value & opt string "bursts:300x4"
         & info [ "arrivals" ] ~docv:"SPEC"
             ~doc:"Arrival process per tenant: $(b,steady:RATE), \
                   $(b,poisson:RATE) or $(b,bursts:PERIODxMEAN).")
  in
  let slo_arg =
    Arg.(value & opt float 60.0 & info [ "slo" ] ~doc:"Latency SLO in model seconds.")
  in
  let min_width_arg =
    Arg.(value & opt int 1 & info [ "min-width" ] ~doc:"Smallest batch width.")
  in
  let max_width_arg =
    Arg.(value & opt int 16 & info [ "max-width" ] ~doc:"Largest batch width.")
  in
  let policy_arg =
    Arg.(value & opt string "adaptive"
         & info [ "policy" ] ~docv:"POLICY"
             ~doc:"$(b,adaptive) or $(b,fixed:W) (fill-or-timeout at width W).")
  in
  let pipeline_arg =
    Arg.(value & opt int 1
         & info [ "pipeline" ] ~docv:"DEPTH"
             ~doc:"Pipeline depth: up to $(docv) batches in flight, each \
                   batch's fetch overlapping earlier batches' decode.  \
                   Applies to either $(b,--policy).  1 (default) is the \
                   synchronous schedule.")
  in
  let percentile sorted q =
    let n = Array.length sorted in
    if n = 0 then nan
    else
      let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
      sorted.(max 0 (min (n - 1) (rank - 1)))
  in
  let run preset preset_scale gr co seed page_size tenants count arrivals slo min_width
      max_width policy pipeline faults fault_seed metrics =
    let policy =
      match String.lowercase_ascii policy with
      | "adaptive" -> Psp_serve.Scheduler.Adaptive
      | p -> (
          match String.index_opt p ':' with
          | Some i when String.sub p 0 i = "fixed" -> (
              match
                int_of_string_opt (String.sub p (i + 1) (String.length p - i - 1))
              with
              | Some w when w >= 1 -> Psp_serve.Scheduler.Fixed w
              | _ -> failwith (Printf.sprintf "bad --policy %S: fixed:W needs W >= 1" p))
          | _ -> failwith (Printf.sprintf "unknown --policy %S" p))
    in
    if pipeline < 1 then failwith "--pipeline needs DEPTH >= 1";
    let process =
      match Psp_netgen.Workload.arrival_of_string arrivals with
      | Ok p -> p
      | Error e -> failwith (Printf.sprintf "bad --arrivals %S: %s" arrivals e)
    in
    let schemes =
      List.filter (fun s -> s <> "") (String.split_on_char ',' tenants)
    in
    if schemes = [] then failwith "--tenants needs at least one scheme";
    let g = load_network preset preset_scale gr co seed in
    let cost = Psp_pir.Cost_model.ibm4764 in
    let key = Psp_crypto.Sha256.digest_string "pspc" in
    let seen = Hashtbl.create 4 in
    let tenant_of idx scheme =
      let base = String.lowercase_ascii scheme in
      let n = 1 + Option.value ~default:0 (Hashtbl.find_opt seen base) in
      Hashtbl.replace seen base n;
      let name = if n = 1 then base else Printf.sprintf "%s-%d" base n in
      let db = build_database g scheme page_size seed in
      let server = Psp_pir.Server.create ~cost ~key (DB.files db) in
      let pairs = Psp_netgen.Synthetic.random_queries g ~count ~seed:(seed + 1 + idx) in
      let arrivals =
        Psp_netgen.Workload.arrivals process ~count ~seed:(seed + 13 + idx)
      in
      ( { Psp_serve.Scheduler.name; server; graph = g },
        (name, pairs, arrivals),
        db.DB.scheme )
    in
    let built = List.mapi tenant_of schemes in
    let cfg =
      { Psp_serve.Scheduler.min_width; max_width; slo; policy; depth = pipeline }
    in
    arm_faults faults fault_seed;
    Obs.reset ();
    let jobs = Psp_serve.Scheduler.mix (List.map (fun (_, s, _) -> s) built) in
    let report =
      Psp_serve.Scheduler.run cfg
        ~tenants:(List.map (fun (t, _, _) -> t) built)
        ~jobs
    in
    Psp_fault.Fault.reset ();
    Printf.printf
      "served %d queries across %d tenants (%s policy, depth %d, slo %.1fs)\n"
      (Array.length report.Psp_serve.Scheduler.served)
      (List.length built)
      (match policy with
      | Psp_serve.Scheduler.Adaptive -> "adaptive"
      | Psp_serve.Scheduler.Fixed w -> Printf.sprintf "fixed:%d" w)
      pipeline slo;
    let unavailable = ref 0 in
    List.iter
      (fun (tn, _, scheme) ->
        let name = tn.Psp_serve.Scheduler.name in
        let mine =
          Array.of_list
            (List.filter
               (fun (s : Psp_serve.Scheduler.served) ->
                 s.Psp_serve.Scheduler.job.Psp_serve.Queue.tenant = name)
               (Array.to_list report.Psp_serve.Scheduler.served))
        in
        Array.iter
          (fun (s : Psp_serve.Scheduler.served) ->
            match s.Psp_serve.Scheduler.result.Psp_core.Client.status with
            | Psp_core.Client.Unavailable _ | Psp_core.Client.Unknown_scheme _ ->
                incr unavailable
            | _ -> ())
          mine;
        let batches =
          List.filter
            (fun (b : Psp_serve.Scheduler.batch_record) ->
              b.Psp_serve.Scheduler.b_tenant = name)
            report.Psp_serve.Scheduler.batches
        in
        let widths =
          List.map (fun (b : Psp_serve.Scheduler.batch_record) ->
              b.Psp_serve.Scheduler.b_width)
            batches
        in
        let lat =
          Array.map (fun (s : Psp_serve.Scheduler.served) ->
              s.Psp_serve.Scheduler.latency)
            mine
        in
        Array.sort compare lat;
        let over =
          Array.fold_left (fun acc l -> if l > slo then acc + 1 else acc) 0 lat
        in
        Printf.printf
          "  %-6s (%s): %d queries in %d batches, widths %d-%d (mean %.1f)\n" name
          scheme (Array.length mine) (List.length batches)
          (List.fold_left min max_int widths)
          (List.fold_left max 0 widths)
          (float_of_int (List.fold_left ( + ) 0 widths)
          /. float_of_int (max 1 (List.length widths)));
        Printf.printf
          "         latency p50 %.2fs  p95 %.2fs  p99 %.2fs  (%d over slo)\n"
          (percentile lat 0.50) (percentile lat 0.95) (percentile lat 0.99) over)
      built;
    (* the privacy invariant, checked on the live run: members of every
       dispatched batch must be mutually indistinguishable *)
    let by_batch = Hashtbl.create 16 in
    Array.iter
      (fun (s : Psp_serve.Scheduler.served) ->
        let k =
          ( s.Psp_serve.Scheduler.job.Psp_serve.Queue.tenant,
            s.Psp_serve.Scheduler.dispatched )
        in
        Hashtbl.replace by_batch k
          (s.Psp_serve.Scheduler.result.Psp_core.Client.stats
             .Psp_pir.Server.Session.trace
          :: Option.value ~default:[] (Hashtbl.find_opt by_batch k)))
      report.Psp_serve.Scheduler.served;
    let violations =
      Hashtbl.fold
        (fun _ traces acc ->
          match Psp_core.Privacy.indistinguishable traces with
          | Ok () -> acc
          | Error e -> e :: acc)
        by_batch []
    in
    (match violations with
    | [] ->
        Printf.printf
          "all batch members mutually indistinguishable (%d batches, makespan %.1fs)\n"
          (List.length report.Psp_serve.Scheduler.batches)
          report.Psp_serve.Scheduler.makespan
    | e :: _ -> Printf.printf "PRIVACY VIOLATION: %s\n" e);
    report_metrics metrics;
    if !unavailable > 0 then begin
      Printf.printf "%d queries UNAVAILABLE\n" !unavailable;
      exit 3
    end;
    if violations <> [] then exit 4
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve a mixed multi-tenant query stream through the adaptive scheduler")
    Term.(
      const run $ preset_arg $ preset_scale $ gr_arg $ co_arg $ seed_arg
      $ page_size_arg $ tenants_arg $ count $ arrivals_arg $ slo_arg $ min_width_arg
      $ max_width_arg $ policy_arg $ pipeline_arg $ fault_arg $ fault_seed_arg
      $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* trace *)

let trace_cmd =
  let count = Arg.(value & opt int 5 & info [ "n" ] ~doc:"Queries to trace.") in
  let run preset preset_scale gr co seed scheme page_size count faults fault_seed metrics =
    let g = load_network preset preset_scale gr co seed in
    let db = build_database g scheme page_size seed in
    let server =
      Psp_pir.Server.create ~cost:Psp_pir.Cost_model.ibm4764
        ~key:(Psp_crypto.Sha256.digest_string "pspc") (DB.files db)
    in
    arm_faults faults fault_seed;
    Obs.reset ();
    let queries = Psp_netgen.Synthetic.random_queries g ~count ~seed:(seed + 1) in
    let results =
      Array.to_list
        (Array.map
           (fun (s, t) ->
             (* replay the same fault schedule for every query: the
                indistinguishability check below must hold even while
                faults force retries *)
             Psp_fault.Fault.rewind ();
             Psp_core.Client.query_nodes server g s t)
           queries)
    in
    Psp_fault.Fault.reset ();
    let traces =
      List.map
        (fun (r : Psp_core.Client.result) ->
          r.Psp_core.Client.stats.Psp_pir.Server.Session.trace)
        results
    in
    Format.printf "adversary view of every query (scheme %s):@.%a@." db.DB.scheme
      Psp_pir.Trace.pp (List.hd traces);
    (match Psp_core.Privacy.indistinguishable traces with
    | Ok () -> Printf.printf "all %d traces identical: queries are indistinguishable\n" count
    | Error e -> Printf.printf "PRIVACY VIOLATION: %s\n" e);
    let retries =
      List.fold_left
        (fun acc (r : Psp_core.Client.result) ->
          acc + r.Psp_core.Client.stats.Psp_pir.Server.Session.retries)
        0 results
    in
    if retries > 0 then
      Printf.printf "recovered from injected faults with %d retries total\n" retries;
    let header_pages = PF.page_count db.DB.header_file in
    (match Psp_core.Privacy.conforms db.DB.header ~header_pages (List.hd traces) with
    | Ok () -> Printf.printf "trace conforms to the published query plan\n"
    | Error e ->
        if faults = [] then Printf.printf "PLAN VIOLATION: %s\n" e
        else
          Printf.printf
            "trace deviates from the fault-free plan (expected under injection): %s\n" e);
    report_metrics metrics
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Show the adversary's view and check indistinguishability")
    Term.(
      const run $ preset_arg $ preset_scale $ gr_arg $ co_arg $ seed_arg $ scheme_arg
      $ page_size_arg $ count $ fault_arg $ fault_seed_arg $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* stats *)

let stats_cmd =
  let count =
    Arg.(value & opt int 10 & info [ "queries" ] ~doc:"Queries to run before reporting.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the full snapshot as JSON.")
  in
  let shape =
    Arg.(value & flag
         & info [ "shape" ]
             ~doc:"Print only the constant-shape digest (identical for every \
                   same-plan query; see docs/OBSERVABILITY.md).")
  in
  let run preset preset_scale gr co seed scheme page_size count json shape_only =
    let g = load_network preset preset_scale gr co seed in
    let db = build_database g scheme page_size seed in
    let server =
      Psp_pir.Server.create ~cost:Psp_pir.Cost_model.ibm4764
        ~key:(Psp_crypto.Sha256.digest_string "pspc") (DB.files db)
    in
    Obs.reset ();
    let queries = Psp_netgen.Synthetic.random_queries g ~count ~seed:(seed + 1) in
    Array.iter (fun (s, t) -> ignore (Psp_core.Client.query_nodes server g s t)) queries;
    if shape_only then print_endline (Obs.shape ())
    else if json then print_endline (Psp_obs.Json.to_string_pretty (Obs.to_json ()))
    else begin
      Printf.printf "telemetry after %d %s queries:\n" count db.DB.scheme;
      Format.printf "%a" Obs.pp ()
    end
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Run sample queries and report the oblivious telemetry registry")
    Term.(
      const run $ preset_arg $ preset_scale $ gr_arg $ co_arg $ seed_arg $ scheme_arg
      $ page_size_arg $ count $ json $ shape)

(* ------------------------------------------------------------------ *)
(* inspect *)

let inspect_cmd =
  let run preset preset_scale gr co seed =
    let g = load_network preset preset_scale gr co seed in
    let x0, y0, x1, y1 = G.bounding_box g in
    Printf.printf "nodes: %d\ndirected edges: %d\n" (G.node_count g) (G.edge_count g);
    Printf.printf "bounding box: (%.1f, %.1f) - (%.1f, %.1f)\n" x0 y0 x1 y1;
    let degrees = Array.init (G.node_count g) (G.out_degree g) in
    let total = Array.fold_left ( + ) 0 degrees in
    Printf.printf "mean out-degree: %.2f\n"
      (float_of_int total /. float_of_int (G.node_count g));
    let spt = Psp_graph.Dijkstra.tree g ~source:0 in
    let reachable =
      Array.fold_left
        (fun acc d -> if d < infinity then acc + 1 else acc)
        0 spt.Psp_graph.Dijkstra.dist
    in
    Printf.printf "reachable from node 0: %d (%s)\n" reachable
      (if reachable = G.node_count g then "connected" else "NOT connected")
  in
  Cmd.v
    (Cmd.info "inspect" ~doc:"Summarize a network's structure")
    Term.(const run $ preset_arg $ preset_scale $ gr_arg $ co_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* lint *)

let lint_cmd =
  let paths =
    Arg.(value & pos_all string []
         & info [] ~docv:"PATH"
             ~doc:"$(b,.cmt) files or directories searched recursively. Defaults to \
                   the audited libraries under _build/default/lib.")
  in
  let quiet = Arg.(value & flag & info [ "quiet" ] ~doc:"Print only the summary line.") in
  let audit =
    Arg.(value & flag
         & info [ "audit" ] ~doc:"List every $(b,[@@oblivious]) function audited.")
  in
  let root =
    Arg.(value & opt (some string) None
         & info [ "root" ] ~docv:"DIR"
             ~doc:"Whole-program mode: index every $(b,.cmt) under DIR-relative \
                   PATHs into one call graph and report cross-module flows with \
                   full call chains.")
  in
  let sarif =
    Arg.(value & opt (some string) None
         & info [ "sarif" ] ~docv:"FILE" ~doc:"Write a SARIF 2.1.0 report to FILE.")
  in
  let baseline =
    Arg.(value & opt (some string) None
         & info [ "baseline" ] ~docv:"FILE"
             ~doc:"Suppress findings accepted in FILE; report baseline drift.")
  in
  let write_baseline =
    Arg.(value & opt (some string) None
         & info [ "write-baseline" ] ~docv:"FILE"
             ~doc:"Regenerate FILE from the current findings and exit 0.")
  in
  let run paths quiet audit root sarif baseline write_baseline =
    let paths =
      if paths <> [] || root <> None then paths
      else
        List.filter_map
          (fun lib ->
            let dir = Printf.sprintf "_build/default/lib/%s" lib in
            if Sys.file_exists dir then Some dir else None)
          [ "core"; "pir"; "index" ]
    in
    exit
      (Psp_lint.Lint.main ?root ?sarif ?baseline ?write_baseline ~paths ~quiet ~audit
         ())
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Statically check the oblivious core for secret-dependent behaviour")
    Term.(const run $ paths $ quiet $ audit $ root $ sarif $ baseline $ write_baseline)

(* ------------------------------------------------------------------ *)
(* render *)

let render_cmd =
  let out =
    Arg.(value & opt string "network.svg" & info [ "o"; "output" ] ~doc:"SVG output path.")
  in
  let s_arg = Arg.(value & opt (some int) None & info [ "s" ] ~doc:"Source node id.") in
  let t_arg = Arg.(value & opt (some int) None & info [ "t" ] ~doc:"Destination node id.") in
  let run preset preset_scale gr co seed scheme page_size out s t =
    let g = load_network preset preset_scale gr co seed in
    let db = build_database g scheme page_size seed in
    let rng = Psp_util.Rng.create (seed + 7) in
    let s = Option.value ~default:(Psp_util.Rng.int rng (G.node_count g)) s in
    let t = Option.value ~default:(Psp_util.Rng.int rng (G.node_count g)) t in
    let server =
      Psp_pir.Server.create ~cost:Psp_pir.Cost_model.ibm4764
        ~key:(Psp_crypto.Sha256.digest_string "pspc") (DB.files db)
    in
    let r = Psp_core.Client.query_nodes server g s t in
    let path =
      match r.Psp_core.Client.path with Some (nodes, _) -> nodes | None -> []
    in
    let part = db.DB.partition in
    let highlight_regions =
      (* the regions this query's footprint covers *)
      List.sort_uniq compare
        (List.map (fun v -> Psp_partition.Kdtree.region_of_node part v) path)
    in
    let options =
      { Psp_partition.Render.default_options with
        Psp_partition.Render.highlight_regions;
        path }
    in
    Psp_partition.Render.save ~path:out
      (Psp_partition.Render.svg ~options g (Some part));
    Printf.printf "rendered %s: %s query %d -> %d over %d regions\n" out db.DB.scheme s
      t
      (List.length highlight_regions)
  in
  Cmd.v
    (Cmd.info "render" ~doc:"Render the network, partition and a query to SVG")
    Term.(
      const run $ preset_arg $ preset_scale $ gr_arg $ co_arg $ seed_arg $ scheme_arg
      $ page_size_arg $ out $ s_arg $ t_arg)

let () =
  let doc = "Private shortest paths with no information leakage (VLDB 2012)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "pspc" ~doc)
          [ generate_cmd;
            build_cmd;
            query_cmd;
            batch_cmd;
            serve_cmd;
            trace_cmd;
            stats_cmd;
            inspect_cmd;
            render_cmd;
            lint_cmd ]))
