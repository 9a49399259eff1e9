(* pspc — command-line front end for the private shortest-path system.

   Subcommands:
     generate   synthesize a road network (or a Table 1 preset) to DIMACS
     build      build a scheme database from a network and report its layout
     query      run private shortest-path queries end to end as same-plan
                batches (a single query is a width-1 batch): answers checked
                against an in-process oracle, the adversary's view, trace
                indistinguishability and plan conformance
     serve      run a mixed multi-tenant stream through the scheduler-driven
                serving frontend (lib/serve)
     inspect    summarize a network's structure
     render     render the network, its partition and a query to SVG

   Networks are passed either as `--preset old --preset-scale 16` or as
   DIMACS files (`--gr map.gr --co map.co`).  A malformed option value is
   a usage error (exit 124) before any work starts. *)

open Cmdliner
module G = Psp_graph.Graph
module DB = Psp_index.Database
module PF = Psp_storage.Page_file
module Obs = Psp_obs.Obs
module Client = Psp_core.Client
module Response_time = Psp_core.Response_time

(* ------------------------------------------------------------------ *)
(* Shared options *)

(* An option value accepted by [parse] and shown by [print]; a rejected
   one is a usage error. *)
let checked parse print =
  Arg.conv' (parse, fun ppf v -> Format.pp_print_string ppf (print v))

let positive =
  checked
    (fun s ->
      match int_of_string_opt s with
      | Some n when n >= 1 -> Ok n
      | _ -> Error (Printf.sprintf "expected an integer >= 1, got %S" s))
    string_of_int

let preset_arg =
  let doc = "Use a Table 1 preset network (old/ger/arg/den/ind/nor)." in
  let preset =
    checked
      (fun s ->
        Option.to_result
          ~none:(Printf.sprintf "unknown preset %S, not old/ger/arg/den/ind/nor" s)
          (Psp_netgen.Presets.of_string s))
      Psp_netgen.Presets.full_name
  in
  Arg.(value & opt (some preset) None & info [ "preset" ] ~docv:"NAME" ~doc)

let preset_scale =
  let doc = "Divide the preset's published size by this factor." in
  Arg.(value & opt float 16.0 & info [ "preset-scale" ] ~doc)

let seed_arg =
  let doc = "Random seed." in
  Arg.(value & opt int 2012 & info [ "seed" ] ~doc)

(* The network a command runs on: a preset, a DIMACS pair, or a handy
   city-sized default.  Loaded once the command line is accepted. *)
let network =
  let gr_arg =
    Arg.(value & opt (some file) None & info [ "gr" ] ~doc:"DIMACS .gr graph file.")
  in
  let co_arg =
    Arg.(value & opt (some file) None & info [ "co" ] ~doc:"DIMACS .co coordinate file.")
  in
  let load preset preset_scale gr co seed =
    match (preset, gr, co) with
    | Some p, None, None -> `Ok (Psp_netgen.Presets.graph ~scale:preset_scale ~seed p)
    | None, Some gr, Some co -> `Ok (Psp_netgen.Dimacs.parse_files ~gr_path:gr ~co_path:co)
    | None, None, None ->
        `Ok
          (Psp_netgen.Synthetic.generate
             { Psp_netgen.Synthetic.nodes = 2000;
               edges = 2260;
               width = 4000.0;
               height = 4000.0;
               seed })
    | _ -> `Error (true, "pass either --preset or both --gr and --co")
  in
  Term.(ret (const load $ preset_arg $ preset_scale $ gr_arg $ co_arg $ seed_arg))

type scheme = Ci | Pi | Hy | Pi_star | Lm | Af

(* Accepted case-insensitively; the first name of a scheme is its own. *)
let scheme_names =
  [ ("CI", Ci); ("PI", Pi); ("HY", Hy); ("PI*", Pi_star); ("PISTAR", Pi_star); ("LM", Lm);
    ("AF", Af) ]

let scheme_of_string s =
  Option.to_result
    ~none:(Printf.sprintf "unknown scheme %S, not CI/PI/HY/PI*/LM/AF" s)
    (List.assoc_opt (String.uppercase_ascii s) scheme_names)

let scheme_name sc = fst (List.find (fun (_, s) -> s = sc) scheme_names)

let scheme_arg =
  let doc = "Scheme: CI, PI, HY, PI*, LM or AF." in
  Arg.(value
       & opt (checked scheme_of_string scheme_name) Ci
       & info [ "scheme" ] ~docv:"SCHEME" ~doc)

let page_size_arg =
  let doc = "Disk page size in bytes." in
  Arg.(value & opt int 4096 & info [ "page-size" ] ~doc)

(* Each spec is kept with its parse, so arming cannot fail. *)
let fault_arg =
  let doc =
    "Arm a failpoint (repeatable).  SPEC is point=schedule with schedule one of \
     never, always, first:N, hits:N,N,..., p:F, flap:U,D — e.g. \
     --fault pir.fetch.transient=hits:2,5 or --fault pir.replica.down=flap:120,2.  \
     See DESIGN.md for the failpoint list."
  in
  let spec =
    checked (fun s -> Result.map (fun p -> (s, p)) (Psp_fault.Fault.parse_spec s)) fst
  in
  Arg.(value & opt_all spec [] & info [ "fault" ] ~doc ~docv:"SPEC")

let fault_seed_arg =
  let doc = "Seed for probabilistic (p:F) fault schedules." in
  Arg.(value & opt int 2012 & info [ "fault-seed" ] ~doc)

let arm_faults faults seed =
  Psp_fault.Fault.reset ();
  List.iter (fun (_, (point, schedule)) -> Psp_fault.Fault.arm ~seed point schedule) faults

let build_database g scheme page_size seed =
  let calibration_queries () = Psp_netgen.Synthetic.random_queries g ~count:200 ~seed in
  match scheme with
  | Ci -> DB.build_ci ~page_size g
  | Pi -> DB.build_pi ~page_size g
  | Hy ->
      let p = DB.prepare ~page_size g in
      let threshold = max 1 (DB.prepared_max_cardinality p / 3) in
      DB.build_hy ~prepared:p ~threshold ~page_size g
  | Pi_star -> DB.build_pi_star ~cluster:2 ~page_size g
  | Lm ->
      let db, _ = DB.build_lm ~anchors:5 ~seed ~page_size g in
      Psp_core.Calibrate.lm db ~queries:(calibration_queries ())
  | Af ->
      let db, _ = DB.build_af ~target_regions:16 ~page_size g in
      Psp_core.Calibrate.af db ~queries:(calibration_queries ())

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
      | Some p -> Psp_netgen.Presets.graph ~scale:preset_scale ~seed p
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
  let run g seed scheme page_size save =
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
    Term.(const run $ network $ seed_arg $ scheme_arg $ page_size_arg $ save_arg)

(* ------------------------------------------------------------------ *)
(* query *)

let report_status (r : Client.result) =
  match r.Client.status with
  | Client.Served -> ()
  | Client.Degraded { retries } ->
      Printf.printf "  degraded: recovered from faults with %d retries (%.2fs backoff)\n"
        retries r.Client.stats.Psp_pir.Server.Session.recovery_seconds
  | Client.Unavailable { point; attempts } ->
      Printf.printf "  UNAVAILABLE: gave up after %d attempts at failpoint %s\n" attempts
        point
  | Client.Unknown_scheme { scheme } ->
      Printf.printf "  UNKNOWN SCHEME: header announces %S; update this client\n" scheme

let report_failovers (rep : Client.replicated) =
  if rep.Client.failovers > 0 then begin
    Printf.printf "  failovers: %d (served by replica %d, +%.2fs modeled switch cost)\n"
      rep.Client.failovers rep.Client.replica rep.Client.failover_seconds;
    List.iter
      (fun (a : Client.abandoned) ->
        Printf.printf "    abandoned replica %d: %s\n" a.Client.on_replica a.Client.reason)
      rep.Client.abandoned
  end

(* The correctness oracle: in-process Dijkstra on the server's graph. *)
let oracle_matches ~truth cost = Float.abs (cost -. truth) <= 1e-3 *. Float.max 1.0 truth

(* One query's answer and its oracle check; true when it is correct. *)
let report_answer g scheme (s, t) (r : Client.result) =
  match r.Client.path with
  | None ->
      Printf.printf "%s: no path from %d to %d\n" scheme s t;
      false
  | Some (nodes, cost) ->
      Printf.printf "%s: path %d -> %d, cost %.2f, %d hops\n" scheme s t cost
        (List.length nodes - 1);
      let truth = Psp_graph.Dijkstra.distance g s t in
      let ok = oracle_matches ~truth cost in
      Printf.printf "  oracle cost %.2f (%s)\n" truth (if ok then "match" else "MISMATCH");
      ok

let query_cmd =
  let s_arg =
    Arg.(value & opt (some int) None & info [ "s" ] ~doc:"Source node id (one query only).")
  in
  let t_arg =
    Arg.(value & opt (some int) None
         & info [ "t" ] ~doc:"Destination node id (one query only).")
  in
  let count =
    Arg.(value & opt positive 1
         & info [ "queries" ] ~docv:"N"
             ~doc:"Queries to run.  Their pairs are drawn at random (seed + 1) \
                   unless $(b,-s)/$(b,-t) fix the pair of a single query.")
  in
  let width =
    Arg.(value & opt positive 1
         & info [ "width" ] ~docv:"W"
             ~doc:"Queries per merged same-plan batch; 1 serves each query alone.")
  in
  let replicas_arg =
    let doc =
      "Serve through N replicas with authenticated pages and oblivious whole-plan \
       failover (1 keeps the standalone path)."
    in
    Arg.(value & opt positive 1 & info [ "replicas" ] ~docv:"N" ~doc)
  in
  let mode_arg =
    let doc = "Serve through the real pyramid ORAM instead of the simulated store." in
    Arg.(value & vflag `Simulated [ (`Pyramid, info [ "oblivious" ] ~doc) ])
  in
  let metrics_arg =
    let doc =
      "Report the telemetry registry (lib/obs): $(b,text) (the default) after the \
       query report, or only the $(b,json) snapshot or only the constant-shape \
       digest ($(b,shape)), identical for every same-plan workload (see \
       docs/OBSERVABILITY.md)."
    in
    let formats = [ ("text", `Text); ("json", `Json); ("shape", `Shape) ] in
    Arg.(value & opt ~vopt:(Some `Text) (some (enum formats)) None
         & info [ "metrics" ] ~docv:"FORMAT" ~doc)
  in
  let run g seed scheme page_size s t count width mode replicas faults fault_seed metrics =
    let in_graph v = v >= 0 && v < G.node_count g in
    if count > 1 && (s <> None || t <> None) then
      `Error (true, "-s and -t fix the pair of a single query; drop them or --queries")
    else if not (List.for_all in_graph (Option.to_list s @ Option.to_list t)) then
      `Error (false, Printf.sprintf "-s and -t take node ids below %d" (G.node_count g))
    else begin
      let db = build_database g scheme page_size seed in
      let cost = Psp_pir.Cost_model.ibm4764 in
      let key = Psp_crypto.Sha256.digest_string "pspc" in
      let serve =
        if replicas = 1 then begin
          let server = Psp_pir.Server.create ~mode ~cost ~key (DB.files db) in
          fun pairs ->
            let rs = Client.query_nodes_batch server g pairs in
            (rs, Array.map Response_time.of_result rs, None)
        end
        else begin
          let rset = Psp_pir.Replica_set.create ~mode ~cost ~key ~replicas (DB.files db) in
          fun pairs ->
            let rep =
              Client.query_batch_replicated rset (Client.endpoints_of_nodes g pairs)
            in
            (rep.Client.results, Response_time.of_replicated rep, Some rep)
        end
      in
      let pairs =
        let drawn = Psp_netgen.Synthetic.random_queries g ~count ~seed:(seed + 1) in
        let s0, t0 = drawn.(0) in
        if count = 1 then [| (Option.value ~default:s0 s, Option.value ~default:t0 t) |]
        else drawn
      in
      arm_faults faults fault_seed;
      Obs.reset ();
      let batches =
        Array.init
          ((count + width - 1) / width)
          (fun b ->
            let chunk = Array.sub pairs (b * width) (min width (count - (b * width))) in
            (* replay the same fault schedule for every batch: the
               indistinguishability check below must hold even while
               faults force retries *)
            Psp_fault.Fault.rewind ();
            (chunk, serve chunk))
      in
      Psp_fault.Fault.reset ();
      let results =
        Array.concat (List.map (fun (_, (rs, _, _)) -> rs) (Array.to_list batches))
      in
      let traces =
        List.map
          (fun (r : Client.result) -> r.Client.stats.Psp_pir.Server.Session.trace)
          (Array.to_list results)
      in
      let indistinguishable = Psp_core.Privacy.indistinguishable traces in
      let conforms =
        Psp_core.Privacy.conforms db.DB.header
          ~header_pages:(PF.page_count db.DB.header_file)
          (List.hd traces)
      in
      (match metrics with
      | Some `Json -> print_endline (Psp_obs.Json.to_string_pretty (Obs.to_json ()))
      | Some `Shape -> print_endline (Obs.shape ())
      | None | Some `Text ->
          let answered = ref 0 and correct = ref 0 and response = ref 0.0 in
          Array.iter
            (fun (chunk, (rs, rts, rep)) ->
              Array.iteri
                (fun i r ->
                  if r.Client.path <> None then incr answered;
                  if report_answer g db.DB.scheme chunk.(i) r then incr correct;
                  report_status r;
                  response := !response +. Response_time.total rts.(i))
                rs;
              Option.iter report_failovers rep)
            batches;
          Format.printf "adversary view of every query (scheme %s):@.%a@." db.DB.scheme
            Psp_pir.Trace.pp (List.hd traces);
          (match indistinguishable with
          | Ok () ->
              Printf.printf "all %d traces identical: queries are indistinguishable\n" count
          | Error e -> Printf.printf "PRIVACY VIOLATION: %s\n" e);
          (match conforms with
          | Ok () -> Printf.printf "trace conforms to the published query plan\n"
          | Error e when faults = [] -> Printf.printf "PLAN VIOLATION: %s\n" e
          | Error e ->
              Printf.printf
                "trace deviates from the fault-free plan (expected under injection): %s\n"
                e);
          Printf.printf "%s: served %d queries in batches of %d: %d answered, %d correct\n"
            db.DB.scheme count width !answered !correct;
          Printf.printf "  amortized simulated response: %.3fs per query\n"
            (!response /. float_of_int count);
          if metrics = Some `Text then Format.printf "@.telemetry:@.%a" Obs.pp ());
      (* exit codes as `pspc serve`: 3 when a query went unanswered, 4 on
         a privacy violation *)
      let unavailable (r : Client.result) =
        match r.Client.status with
        | Client.Unavailable _ | Client.Unknown_scheme _ -> true
        | Client.Served | Client.Degraded _ -> false
      in
      if Array.exists unavailable results then exit 3;
      if Result.is_error indistinguishable || (faults = [] && Result.is_error conforms)
      then exit 4;
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Run private shortest-path queries end to end and check their traces")
    Term.(
      ret
        (const run $ network $ seed_arg $ scheme_arg $ page_size_arg $ s_arg $ t_arg $ count
       $ width $ mode_arg $ replicas_arg $ fault_arg $ fault_seed_arg $ metrics_arg))

(* ------------------------------------------------------------------ *)
(* serve *)

let serve_cmd =
  let tenants_arg =
    let tenants =
      checked
        (fun s ->
          match List.filter (fun s -> s <> "") (String.split_on_char ',' s) with
          | [] -> Error "needs at least one scheme"
          | names ->
              List.fold_right
                (fun name acc ->
                  match (scheme_of_string name, acc) with
                  | Ok sc, Ok rest -> Ok (sc :: rest)
                  | Error e, _ | _, Error e -> Error e)
                names (Ok []))
        (fun scs -> String.concat "," (List.map scheme_name scs))
    in
    Arg.(value & opt tenants [ Ci; Pi ]
         & info [ "tenants" ] ~docv:"SCHEMES"
             ~doc:"Comma-separated scheme list served side by side (e.g. \
                   $(b,ci,pi)).  Each scheme becomes one tenant database over \
                   the same network.")
  in
  let count =
    Arg.(value & opt positive 12 & info [ "queries" ] ~doc:"Queries per tenant.")
  in
  let arrivals_arg =
    let open Psp_netgen.Workload in
    let process =
      checked arrival_of_string (function
        | Steady { rate } -> Printf.sprintf "steady:%g" rate
        | Poisson { rate } -> Printf.sprintf "poisson:%g" rate
        | Bursts { period; mean_size } -> Printf.sprintf "bursts:%gx%d" period mean_size)
    in
    Arg.(value & opt process (Bursts { period = 300.0; mean_size = 4 })
         & info [ "arrivals" ] ~docv:"SPEC"
             ~doc:"Arrival process per tenant: $(b,steady:RATE), \
                   $(b,poisson:RATE) or $(b,bursts:PERIODxMEAN).")
  in
  let slo_arg =
    let seconds =
      checked
        (fun s ->
          match float_of_string_opt s with
          | Some x when x > 0.0 -> Ok x
          | _ -> Error (Printf.sprintf "expected seconds > 0, got %S" s))
        string_of_float
    in
    Arg.(value & opt seconds 60.0 & info [ "slo" ] ~doc:"Latency SLO in model seconds.")
  in
  let widths =
    let min_width =
      Arg.(value & opt positive 1 & info [ "min-width" ] ~doc:"Smallest batch width.")
    in
    let max_width =
      Arg.(value & opt positive 16 & info [ "max-width" ] ~doc:"Largest batch width.")
    in
    let check lo hi =
      if hi < lo then `Error (false, "--max-width must be at least --min-width")
      else `Ok (lo, hi)
    in
    Term.(ret (const check $ min_width $ max_width))
  in
  let policy_name = function
    | Psp_serve.Scheduler.Adaptive -> "adaptive"
    | Psp_serve.Scheduler.Fixed w -> Printf.sprintf "fixed:%d" w
  in
  let policy_arg =
    let policy =
      checked
        (fun p ->
          match String.lowercase_ascii p with
          | "adaptive" -> Ok Psp_serve.Scheduler.Adaptive
          | l -> (
              match String.index_opt l ':' with
              | Some i when String.sub l 0 i = "fixed" -> (
                  let w = String.sub l (i + 1) (String.length l - i - 1) in
                  match int_of_string_opt w with
                  | Some w when w >= 1 -> Ok (Psp_serve.Scheduler.Fixed w)
                  | _ -> Error (Printf.sprintf "%S: fixed:W needs W >= 1" p))
              | _ -> Error (Printf.sprintf "unknown policy %S, not adaptive or fixed:W" p)))
        policy_name
    in
    Arg.(value & opt policy Psp_serve.Scheduler.Adaptive
         & info [ "policy" ] ~docv:"POLICY"
             ~doc:"$(b,adaptive) or $(b,fixed:W) (fill-or-timeout at width W).")
  in
  let pipeline_arg =
    Arg.(value & opt positive 1
         & info [ "pipeline" ] ~docv:"DEPTH"
             ~doc:"Pipeline depth: up to $(docv) batches in flight, each \
                   batch's fetch overlapping earlier batches' decode.  \
                   Applies to either $(b,--policy).  1 (default) is the \
                   synchronous schedule.")
  in
  let metrics_arg =
    let doc = "Print the telemetry registry (lib/obs) after the run." in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  (* a tenant may have served no query *)
  let percentile xs p = if Array.length xs = 0 then nan else Psp_util.Stats.percentile xs p in
  let run g seed page_size schemes count process slo (min_width, max_width) policy pipeline
      faults fault_seed metrics =
    let cost = Psp_pir.Cost_model.ibm4764 in
    let key = Psp_crypto.Sha256.digest_string "pspc" in
    let seen = Hashtbl.create 4 in
    let tenant_of idx scheme =
      let base = String.lowercase_ascii (scheme_name scheme) in
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
      (List.length built) (policy_name policy) pipeline slo;
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
            match s.Psp_serve.Scheduler.result.Client.status with
            | Client.Unavailable _ | Client.Unknown_scheme _ -> incr unavailable
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
          (percentile lat 50.0) (percentile lat 95.0) (percentile lat 99.0) over)
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
          (s.Psp_serve.Scheduler.result.Client.stats.Psp_pir.Server.Session.trace
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
    if metrics then Format.printf "@.telemetry:@.%a" Obs.pp ();
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
      const run $ network $ seed_arg $ page_size_arg $ tenants_arg $ count $ arrivals_arg
      $ slo_arg $ widths $ policy_arg $ pipeline_arg $ fault_arg
      $ fault_seed_arg $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* inspect *)

let inspect_cmd =
  let run g =
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
    Term.(const run $ network)

(* ------------------------------------------------------------------ *)
(* render *)

let render_cmd =
  let out =
    Arg.(value & opt string "network.svg" & info [ "o"; "output" ] ~doc:"SVG output path.")
  in
  let s_arg = Arg.(value & opt (some int) None & info [ "s" ] ~doc:"Source node id.") in
  let t_arg = Arg.(value & opt (some int) None & info [ "t" ] ~doc:"Destination node id.") in
  let run g seed scheme page_size out s t =
    let db = build_database g scheme page_size seed in
    let rng = Psp_util.Rng.create (seed + 7) in
    let s = Option.value ~default:(Psp_util.Rng.int rng (G.node_count g)) s in
    let t = Option.value ~default:(Psp_util.Rng.int rng (G.node_count g)) t in
    let server =
      Psp_pir.Server.create ~cost:Psp_pir.Cost_model.ibm4764
        ~key:(Psp_crypto.Sha256.digest_string "pspc") (DB.files db)
    in
    let r = Client.query_nodes server g s t in
    let path =
      match r.Client.path with Some (nodes, _) -> nodes | None -> []
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
      const run $ network $ seed_arg $ scheme_arg $ page_size_arg $ out $ s_arg $ t_arg)

let () =
  let doc = "Private shortest paths with no information leakage (VLDB 2012)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "pspc" ~doc)
          [ generate_cmd; build_cmd; query_cmd; serve_cmd; inspect_cmd; render_cmd ]))
