(* End-to-end protocol tests: every scheme answers correctly, every
   query is indistinguishable from every other (Theorem 1), traces
   conform to the published plan, the oblivious execution mode works,
   and the response-time model behaves. *)

module G = Psp_graph.Graph
module DB = Psp_index.Database
module PF = Psp_storage.Page_file
module Server = Psp_pir.Server
module Session = Psp_pir.Server.Session
module QP = Psp_index.Query_plan
open Psp_core

let key = Psp_crypto.Sha256.digest_string "core tests"
let cost = Psp_pir.Cost_model.ibm4764
let page_size = 512

let network ?(nodes = 350) ?(seed = 17) () =
  Psp_netgen.Synthetic.generate
    { Psp_netgen.Synthetic.nodes;
      edges = nodes + (nodes / 8);
      width = 1000.0;
      height = 1000.0;
      seed }

let g = network ()
let queries = Psp_netgen.Synthetic.random_queries g ~count:50 ~seed:33

let databases =
  lazy
    (let lm, _ = DB.build_lm ~anchors:4 ~seed:2 ~page_size g in
     let af, _ = DB.build_af ~target_regions:14 ~page_size g in
     [ ("CI", DB.build_ci ~page_size g);
       ("PI", DB.build_pi ~page_size g);
       ("HY", DB.build_hy ~threshold:5 ~page_size g);
       ("PI*", DB.build_pi_star ~cluster:2 ~page_size g);
       ("LM", Calibrate.lm lm ~queries);
       ("AF", Calibrate.af af ~queries) ])

let close_cost got truth = Float.abs (got -. truth) <= 1e-3 *. Float.max 1.0 truth

let run_workload db =
  let server = Server.create ~cost ~key (DB.files db) in
  Array.to_list (Array.map (fun (s, t) -> ((s, t), Client.query_nodes server g s t)) queries)

(* ------------------------------------------------------------------ *)

let test_scheme_correct name () =
  let db = List.assoc name (Lazy.force databases) in
  List.iter
    (fun ((s, t), (r : Client.result)) ->
      let truth = Psp_graph.Dijkstra.distance g s t in
      match r.Client.path with
      | None -> Alcotest.fail (Printf.sprintf "%s: no path %d->%d" name s t)
      | Some (nodes, got) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s %d->%d cost %.4f = %.4f" name s t got truth)
            true (close_cost got truth);
          Alcotest.(check int) "starts at s" s (List.hd nodes);
          Alcotest.(check int) "ends at t" t (List.nth nodes (List.length nodes - 1));
          (* the returned node sequence is a real path in the network *)
          let rec walk = function
            | [] | [ _ ] -> ()
            | u :: (v :: _ as rest) ->
                let connected = G.fold_out g u (fun acc e -> acc || e.G.dst = v) false in
                Alcotest.(check bool) (Printf.sprintf "edge %d->%d exists" u v) true connected;
                walk rest
          in
          walk nodes)
    (run_workload db)

let test_scheme_private name () =
  let db = List.assoc name (Lazy.force databases) in
  let results = run_workload db in
  let traces =
    List.map (fun (_, (r : Client.result)) -> r.Client.stats.Session.trace) results
  in
  (match Privacy.indistinguishable traces with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Printf.sprintf "%s: %s" name e));
  let header_pages = PF.page_count db.DB.header_file in
  match Privacy.conforms db.DB.header ~header_pages (List.hd traces) with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Printf.sprintf "%s: %s" name e)

let test_scheme_rounds name expected () =
  let db = List.assoc name (Lazy.force databases) in
  let server = Server.create ~cost ~key (DB.files db) in
  let s, t = queries.(0) in
  let r = Client.query_nodes server g s t in
  Alcotest.(check int) "round count" expected r.Client.stats.Session.rounds

let test_self_query () =
  (* s = t: still a full, plan-conformant execution *)
  let db = List.assoc "CI" (Lazy.force databases) in
  let server = Server.create ~cost ~key (DB.files db) in
  let r = Client.query_nodes server g 5 5 in
  (match r.Client.path with
  | Some ([ v ], c) ->
      Alcotest.(check int) "self node" 5 v;
      Alcotest.(check (float 0.0)) "zero cost" 0.0 c
  | _ -> Alcotest.fail "expected trivial path");
  let header_pages = PF.page_count db.DB.header_file in
  match Privacy.conforms db.DB.header ~header_pages r.Client.stats.Session.trace with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_same_region_query () =
  (* two nodes of the same region *)
  let db = List.assoc "PI" (Lazy.force databases) in
  let part = db.DB.partition in
  let r0 = Psp_partition.Kdtree.nodes_of_region part 0 in
  if Array.length r0 >= 2 then begin
    let s = r0.(0) and t = r0.(Array.length r0 - 1) in
    let server = Server.create ~cost ~key (DB.files db) in
    let r = Client.query_nodes server g s t in
    let truth = Psp_graph.Dijkstra.distance g s t in
    match r.Client.path with
    | Some (_, got) -> Alcotest.(check bool) "same-region cost" true (close_cost got truth)
    | None -> Alcotest.fail "no path within region pair"
  end

let test_oblivious_mode_end_to_end () =
  (* the full protocol through the real pyramid ORAM, every scheme *)
  let small = network ~nodes:120 ~seed:4 () in
  let qs = Psp_netgen.Synthetic.random_queries small ~count:6 ~seed:9 in
  let lm, _ = DB.build_lm ~anchors:3 ~seed:2 ~page_size:256 small in
  List.iter
    (fun (name, db) ->
      let server = Server.create ~mode:`Pyramid ~cost ~key (DB.files db) in
      Array.iter
        (fun (s, t) ->
          let r = Client.query_nodes server small s t in
          let truth = Psp_graph.Dijkstra.distance small s t in
          match r.Client.path with
          | None -> Alcotest.fail (name ^ ": no path in oblivious mode")
          | Some (_, got) ->
              Alcotest.(check bool) (name ^ " oblivious correct") true (close_cost got truth))
        qs)
    [ ("CI", DB.build_ci ~page_size:256 small);
      ("PI", DB.build_pi ~page_size:256 small);
      ("HY", DB.build_hy ~threshold:4 ~page_size:256 small);
      ("LM", Calibrate.lm lm ~queries:qs) ]

let test_modes_identical_traces () =
  (* the adversary's view and the accounted costs are the same whether
     pages are served directly or through the pyramid ORAM — the check
     that keeps `Simulated valid as the fast path for paper-table sweeps *)
  let small = network ~nodes:100 ~seed:6 () in
  let qs = Psp_netgen.Synthetic.random_queries small ~count:3 ~seed:2 in
  List.iter
    (fun (name, db) ->
      let view_of mode =
        let server = Server.create ~mode ~cost ~key (DB.files db) in
        Array.to_list
          (Array.map
             (fun (s, t) ->
               let st = (Client.query_nodes server small s t).Client.stats in
               ( Psp_pir.Trace.fingerprint st.Session.trace,
                 (st.Session.pir_seconds, st.Session.comm_seconds),
                 st.Session.pir_fetches ))
             qs)
      in
      Alcotest.(check (list (triple string (pair (float 0.0) (float 0.0))
                               (list (pair string int)))))
        (name ^ ": pyramid same view and costs")
        (view_of `Simulated) (view_of `Pyramid))
    [ ("CI", DB.build_ci ~page_size:256 small); ("PI", DB.build_pi ~page_size:256 small) ]

let test_plan_fetches_match_stats () =
  (* for every scheme, the session's actual private fetch counts equal
     the published plan exactly *)
  List.iter
    (fun (name, db) ->
      let server = Server.create ~cost ~key (DB.files db) in
      let s, t = queries.(3) in
      let r = Client.query_nodes server g s t in
      let total =
        List.fold_left (fun a (_, n) -> a + n) 0 r.Client.stats.Session.pir_fetches
      in
      Alcotest.(check int)
        (name ^ " fetches = plan")
        (QP.total_pir_fetches db.DB.header.Psp_index.Header.plan)
        total)
    (Lazy.force databases)

let test_response_time_components () =
  let db = List.assoc "CI" (Lazy.force databases) in
  let server = Server.create ~cost ~key (DB.files db) in
  let s, t = queries.(1) in
  let r = Client.query_nodes server g s t in
  let rt = Response_time.of_result r in
  Alcotest.(check bool) "pir time dominates" true
    (rt.Response_time.pir_seconds > rt.Response_time.client_seconds);
  Alcotest.(check bool) "comm includes rtts" true
    (rt.Response_time.comm_seconds >= 4.0 *. cost.Psp_pir.Cost_model.rtt -. 1e-9);
  let plan_fetches = QP.total_pir_fetches db.DB.header.Psp_index.Header.plan in
  let total_fetches =
    List.fold_left (fun a (_, n) -> a + n) 0 r.Client.stats.Session.pir_fetches
  in
  Alcotest.(check int) "fetches match plan" plan_fetches total_fetches

let test_response_time_algebra () =
  let a =
    { Response_time.pir_seconds = 1.0;
      comm_seconds = 2.0;
      server_cpu_seconds = 0.5;
      client_seconds = 0.25;
      decode_seconds = 0.0;
      queue_seconds = 0.5 }
  in
  Alcotest.(check (float 1e-9)) "total" 4.25 (Response_time.total a);
  Alcotest.(check (float 1e-9)) "with_queue replaces"
    1.25
    (Response_time.with_queue ~seconds:1.25 a).Response_time.queue_seconds;
  let m = Response_time.mean [ a; Response_time.zero ] in
  Alcotest.(check (float 1e-9)) "mean" 0.5 m.Response_time.pir_seconds;
  Alcotest.(check (float 1e-9)) "mean total" 2.125 (Response_time.total m)

let test_obf_returns_real_path () =
  let obf = Obf.create ~cost ~seed:7 g in
  Array.iter
    (fun (s, t) ->
      let rt, path = Obf.query obf ~set_size:4 ~s ~t_node:t in
      (match path with
      | None -> Alcotest.fail "OBF lost the real path"
      | Some p ->
          Alcotest.(check bool) "optimal" true
            (close_cost (Psp_graph.Path.cost p) (Psp_graph.Dijkstra.distance g s t)));
      Alcotest.(check bool) "no pir" true (rt.Response_time.pir_seconds = 0.0);
      Alcotest.(check bool) "has comm" true (rt.Response_time.comm_seconds > 0.0))
    (Array.sub queries 0 10)

let test_obf_near_placement () =
  (* Lee et al.'s original near-placement: decoys cluster around the
     real endpoints, so the returned paths are shorter and cheaper to
     ship than with uniform decoys *)
  let obf = Obf.create ~cost ~seed:21 g in
  let s, t = queries.(4) in
  let near, p1 = Obf.query ~placement:(Obf.Near 120.0) obf ~set_size:8 ~s ~t_node:t in
  let uniform, p2 = Obf.query ~placement:Obf.Uniform obf ~set_size:8 ~s ~t_node:t in
  Alcotest.(check bool) "near returns real path" true (p1 <> None);
  Alcotest.(check bool) "uniform returns real path" true (p2 <> None);
  Alcotest.(check bool) "near placement communicates less" true
    (near.Response_time.comm_seconds <= uniform.Response_time.comm_seconds)

let test_obf_cost_grows_with_set_size () =
  let obf = Obf.create ~cost ~seed:8 g in
  let s, t = queries.(2) in
  let t4, _ = Obf.query obf ~set_size:4 ~s ~t_node:t in
  let t16, _ = Obf.query obf ~set_size:16 ~s ~t_node:t in
  Alcotest.(check bool) "16 costs more than 4" true
    (Response_time.total t16 > Response_time.total t4)

let test_calibration_tightens_lm_plan () =
  let lm, _ = DB.build_lm ~anchors:4 ~seed:2 ~page_size g in
  let before =
    match lm.DB.header.Psp_index.Header.plan with
    | QP.Lm { total_data_pages } -> total_data_pages
    | _ -> assert false
  in
  let calibrated = Calibrate.lm lm ~queries in
  let after =
    match calibrated.DB.header.Psp_index.Header.plan with
    | QP.Lm { total_data_pages } -> total_data_pages
    | _ -> assert false
  in
  Alcotest.(check bool) (Printf.sprintf "tightened %d -> %d" before after) true
    (after <= before);
  Alcotest.(check bool) "at least two pages" true (after >= 2)

let test_baselines_fetch_more_than_ci () =
  (* §7.3: the PIR baselines read a large share of the database *)
  let dbs = Lazy.force databases in
  let pages scheme =
    let db = List.assoc scheme dbs in
    QP.total_pir_fetches db.DB.header.Psp_index.Header.plan
  in
  Alcotest.(check bool)
    (Printf.sprintf "LM %d > CI %d" (pages "LM") (pages "CI"))
    true
    (pages "LM" > pages "CI");
  Alcotest.(check bool)
    (Printf.sprintf "CI %d > PI %d" (pages "CI") (pages "PI"))
    true
    (pages "CI" > pages "PI")

let test_approximate_schemes () =
  (* future-work extension: epsilon-quantized weights give smaller
     databases and answers within (1 + epsilon) of optimal *)
  let epsilon = 0.05 in
  List.iter
    (fun (name, exact, approx) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s approx %d <= exact %d bytes" name (DB.total_bytes approx)
           (DB.total_bytes exact))
        true
        (DB.total_bytes approx <= DB.total_bytes exact);
      let server = Server.create ~cost ~key (DB.files approx) in
      Array.iter
        (fun (s, t) ->
          let truth = Psp_graph.Dijkstra.distance g s t in
          match (Client.query_nodes server g s t).Client.path with
          | None -> Alcotest.fail (name ^ ": no path")
          | Some (_, got) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: %f within (1+eps) of %f" name got truth)
                true
                (got >= truth -. 1e-6 && got <= ((1.0 +. epsilon) *. truth) +. 1e-6))
        (Array.sub queries 0 25))
    [ ( "CI",
        DB.build_ci ~page_size g,
        DB.build_ci ~epsilon ~page_size g );
      ( "PI",
        DB.build_pi ~page_size g,
        DB.build_pi ~epsilon ~page_size g ) ]

let test_quantize_grid () =
  let epsilon = 0.01 in
  List.iter
    (fun w ->
      let q = Psp_index.Encoding.quantize_up ~epsilon w in
      Alcotest.(check bool) "rounds up" true (q >= w);
      Alcotest.(check bool) "bounded" true (q <= w *. (1.0 +. epsilon) *. (1.0 +. 1e-9)))
    [ 0.001; 0.5; 1.0; 3.14159; 250.7; 99999.0 ];
  Alcotest.(check (float 0.0)) "identity at eps 0" 7.5
    (Psp_index.Encoding.quantize_up ~epsilon:0.0 7.5)

let test_bundle_roundtrip () =
  (* save a built database, reload it, and serve queries from the copy *)
  let db = List.assoc "CI" (Lazy.force databases) in
  let dir = Filename.temp_file "psp" "" in
  Sys.remove dir;
  let bundle = Psp_index.Bundle.of_database db in
  Psp_index.Bundle.save bundle ~dir;
  let loaded = Psp_index.Bundle.load ~dir in
  Alcotest.(check string) "scheme" "CI" loaded.Psp_index.Bundle.scheme;
  Alcotest.(check int) "files" (List.length (DB.files db))
    (List.length (Psp_index.Bundle.files loaded));
  let server = Server.create ~cost ~key (Psp_index.Bundle.files loaded) in
  Array.iter
    (fun (s, t) ->
      let truth = Psp_graph.Dijkstra.distance g s t in
      match (Client.query_nodes server g s t).Client.path with
      | Some (_, got) ->
          Alcotest.(check bool) "served from bundle" true (close_cost got truth)
      | None -> Alcotest.fail "no path from loaded bundle")
    (Array.sub queries 0 10);
  (* clean up *)
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let test_error_paths () =
  (* unknown scheme in the header *)
  let db = List.assoc "CI" (Lazy.force databases) in
  let bad_header = { db.DB.header with Psp_index.Header.scheme = "??" } in
  let header_file = Psp_index.Header.to_page_file bad_header ~page_size in
  let files =
    header_file :: List.filter (fun f -> PF.name f <> "header") (DB.files db)
  in
  let server = Server.create ~cost ~key files in
  (match Client.query_nodes server g 1 2 with
  | { Client.status = Client.Unknown_scheme { scheme = "??" }; path = None; _ } -> ()
  | _ -> Alcotest.fail "expected Unknown_scheme status on unknown scheme");
  (* a known tag whose plan belongs to another scheme is just as unknown:
     it must not be served under the other plan *)
  List.iter
    (fun (tag, plan) ->
      let db = DB.with_plan (List.assoc tag (Lazy.force databases)) plan in
      let server = Server.create ~cost ~key (DB.files db) in
      match Client.query_nodes server g 1 2 with
      | { Client.status = Client.Unknown_scheme { scheme }; path = None; _ } ->
          Alcotest.(check string) "mismatched tag reported" tag scheme
      | _ -> Alcotest.fail (tag ^ ": expected Unknown_scheme on a tag/plan mismatch"))
    [ ("CI", QP.Pi { fi_span = 1 });
      ("PI", QP.Pi_star { fi_span = 1; cluster = 1 });
      ("HY", QP.Ci { fi_span = 1; m = 2 });
      ("LM", QP.Af { pages_per_region = 1; max_regions = 4 }) ];
  (* malformed bundle directory *)
  (match Psp_index.Bundle.load ~dir:"/nonexistent-psp-dir" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument")

let test_trace_leak_detection () =
  (* sanity check of the checker itself: a deviating trace is caught *)
  let t1 = Psp_pir.Trace.create () in
  Psp_pir.Trace.record t1 (Psp_pir.Trace.Pir_fetch { round = 2; file = "lookup" });
  let t2 = Psp_pir.Trace.create () in
  Psp_pir.Trace.record t2 (Psp_pir.Trace.Pir_fetch { round = 2; file = "data" });
  match Privacy.indistinguishable [ t1; t2 ] with
  | Ok () -> Alcotest.fail "leak not detected"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* The secret page sequence, pinned.  Traces only record (round, file),
   so a scheme could read different pages — or answer differently —
   without any trace test noticing.  This reference walker drives a
   registered scheme over the public step list with no server in
   between: it reads pages straight from the page files and digests
   every slot's (file, page) choice, the answer and the consumed region
   count — or, like the engine, "exceeded" for a scheme that the plan
   left unfinished.  The look-up digests were computed before those
   schemes shared one module, the LM and AF slot choices and answers
   before the client store moved to dense local ids; the LM and AF
   digests also pin each search's consumed region count. *)

let reference_walk (db : DB.t) (s, t) =
  let module H = Psp_index.Header in
  let header = db.DB.header in
  let plan = header.H.plan in
  let (module S : Engine.SCHEME) =
    match Registry.find header.H.scheme plan with
    | Some scheme -> scheme
    | None -> Alcotest.fail ("unregistered scheme " ^ header.H.scheme)
  in
  let file name = List.find (fun f -> PF.name f = name) (DB.files db) in
  let sx, sy = G.coords db.DB.graph s and tx, ty = G.coords db.DB.graph t in
  let q =
    { Engine.rs = H.locate header ~x:sx ~y:sy;
      rt = H.locate header ~x:tx ~y:ty;
      sx;
      sy;
      tx;
      ty }
  in
  let st = S.init { Engine.header; psize = PF.page_size db.DB.header_file } q in
  let seq = Buffer.create 256 in
  let round = ref 1 and tail_pages = ref 0 in
  let slot name =
    match S.next_page st ~file:name with
    | None -> Buffer.add_string seq (name ^ ":-;")
    | Some p ->
        Buffer.add_string seq (Printf.sprintf "%s:%d;" name p);
        (* an index page of the combined file read in round 4 is the
           tail of a long HY record *)
        if name = "combined" && !round = 4 && p < header.H.data_offset then
          incr tail_pages;
        S.deliver st ~file:name (PF.read (file name) p)
  in
  List.iter
    (function
      | QP.Next_round -> incr round
      | QP.Fetch_window { file; count } ->
          for _ = 1 to count do
            slot file
          done
      | QP.Decode_barrier { label } -> S.barrier st ~label)
    (QP.steps plan ~pages_per_region:header.H.pages_per_region);
  (if not (S.exhausted st) then Buffer.add_string seq "exceeded\n"
   else
     let path, regions = S.answer st in
     (match path with
     | None -> Buffer.add_string seq "none"
     | Some (nodes, cost) ->
         List.iter (fun v -> Buffer.add_string seq (string_of_int v ^ ",")) nodes;
         Buffer.add_string seq (Printf.sprintf "%h" cost));
     Buffer.add_string seq (Printf.sprintf "|%d\n" regions));
  (Buffer.contents seq, !tail_pages > 0)

let pinned_page_sequences =
  [ ("CI", "708ac082d8aae5a438a152e6d71416af");
    ("PI", "f1da9e1679d5d943aa44e383b79fe388");
    ("HY", "12969ab90a2ef78c3ae55ee1d4ec1bed");
    ("PI*", "14b0d506e80f6c903b6098a9e75ea605");
    ("HY threshold 1", "9de2640943f4d7d2efc559051c6b1bf3");
    ("PI* cluster 3", "266fe9102230f819c73bb56afe2169ba");
    ("small CI", "9d9bd1c914f2bd8cada957e41b3b3c0e");
    ("small PI", "02e492a3d665185958154060eb0117fc");
    ("small HY threshold 0", "adbdcf31ef6f8793ef2b763bcdd0a6c0");
    ("small PI* cluster 2", "a7fe810dc4dccba548c517944831582b");
    ("LM", "bf4e02d92ec6d2a40b48e8183314fa83");
    ("AF", "827893d422a016bc2f5aedc20382df63");
    ("small LM", "0687d1bf50245d91703656f7b82263ea");
    ("small AF", "e5faf9d334b6dd943c82ee4ba78f0ced") ]

let test_page_sequence_pinned () =
  let small = network ~nodes:220 ~seed:91 () in
  let small_queries = Psp_netgen.Synthetic.random_queries small ~count:50 ~seed:12 in
  let dbs =
    List.map
      (fun name -> (name, List.assoc name (Lazy.force databases), queries))
      [ "CI"; "PI"; "HY"; "PI*"; "LM"; "AF" ]
    @ [ ("HY threshold 1", DB.build_hy ~threshold:1 ~page_size g, queries);
        ("PI* cluster 3", DB.build_pi_star ~cluster:3 ~page_size g, queries);
        ("small CI", DB.build_ci ~page_size:256 small, small_queries);
        ("small PI", DB.build_pi ~page_size:256 small, small_queries);
        ("small HY threshold 0", DB.build_hy ~threshold:0 ~page_size:256 small,
         small_queries);
        ("small PI* cluster 2", DB.build_pi_star ~cluster:2 ~page_size:256 small,
         small_queries);
        ( "small LM",
          Calibrate.lm
            (fst (DB.build_lm ~anchors:4 ~seed:2 ~page_size:256 small))
            ~queries:small_queries,
          small_queries );
        ( "small AF",
          Calibrate.af
            (fst (DB.build_af ~target_regions:14 ~page_size:256 small))
            ~queries:small_queries,
          small_queries ) ]
  in
  let long_walks = ref 0 in
  List.iter
    (fun (name, db, qs) ->
      let walks = Array.map (reference_walk db) qs in
      Array.iter (fun (_, long) -> if long && name = "HY" then incr long_walks) walks;
      let digest =
        Digest.to_hex
          (Digest.string (String.concat "" (Array.to_list (Array.map fst walks))))
      in
      Alcotest.(check string)
        (name ^ " page sequence")
        (List.assoc name pinned_page_sequences)
        digest)
    dbs;
  (* the threshold-5 HY database must exercise the long-record tail *)
  Alcotest.(check bool)
    (Printf.sprintf "HY long-record walks: %d" !long_walks)
    true (!long_walks > 0)

(* ------------------------------------------------------------------ *)
(* One plan, no overflow.  A calibrated LM/AF plan is the maximum over
   its workload, so a fresh query may need more.  It must still walk
   exactly the plan (Theorem 1) and fail closed instead of fetching
   more; every other query stays exact. *)

let fresh_queries = Psp_netgen.Synthetic.random_queries g ~count:500 ~seed:99

let is_exceeded (r : Client.result) =
  match r.Client.status with
  | Client.Unavailable { point; attempts = 0 } -> point = Client.plan_exceeded
  | _ -> false

let exact (s, t) (r : Client.result) =
  match r.Client.path with
  | Some (_, got) -> close_cost got (Psp_graph.Dijkstra.distance g s t)
  | None -> false

let check_plan_shaped name db traces =
  let traces = Array.to_list traces in
  let header_pages = PF.page_count db.DB.header_file in
  List.iter
    (fun trace ->
      match Privacy.conforms db.DB.header ~header_pages trace with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Printf.sprintf "%s: %s" name e))
    traces;
  match Privacy.indistinguishable traces with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Printf.sprintf "%s: %s" name e)

let test_out_of_calibration name () =
  let db = List.assoc name (Lazy.force databases) in
  let server = Server.create ~cost ~key (DB.files db) in
  let results = Array.map (fun (s, t) -> Client.query_nodes server g s t) fresh_queries in
  check_plan_shaped name db
    (Array.map (fun (r : Client.result) -> r.Client.stats.Session.trace) results);
  let overruns = ref 0 in
  Array.iteri
    (fun i r ->
      if is_exceeded r then begin
        incr overruns;
        Alcotest.(check bool) "an overrun has no path" true (r.Client.path = None)
      end
      else
        let s, t = fresh_queries.(i) in
        Alcotest.(check bool)
          (Printf.sprintf "%s %d->%d exact" name s t)
          true (exact (s, t) r))
    results;
  (* the calibrated LM plan is tight enough that fresh queries outgrow it *)
  if name = "LM" then
    Alcotest.(check bool) (Printf.sprintf "LM overruns: %d" !overruns) true (!overruns > 0)

let test_overrun_in_batch () =
  let db = List.assoc "LM" (Lazy.force databases) in
  let server = Server.create ~cost ~key (DB.files db) in
  let overrun =
    match
      List.find_opt
        (fun (s, t) -> is_exceeded (Client.query_nodes server g s t))
        (Array.to_list fresh_queries)
    with
    | Some pair -> pair
    | None -> Alcotest.fail "no LM query outgrows the calibrated plan"
  in
  (* the calibration workload fits the plan by construction *)
  let pairs = [| queries.(0); queries.(1); overrun; queries.(2) |] in
  let results = Client.query_nodes_batch server g pairs in
  check_plan_shaped "LM batch" db
    (Array.map (fun (r : Client.result) -> r.Client.stats.Session.trace) results);
  Array.iteri
    (fun i r ->
      if i = 2 then Alcotest.(check bool) "member 2 overruns" true (is_exceeded r)
      else
        Alcotest.(check bool) (Printf.sprintf "member %d exact" i) true (exact pairs.(i) r))
    results

(* HY's round4 is the worst case over every region pair
   (Database.build_hy), so no HY query can outgrow its plan: walk one
   query per ordered (Rs, Rt) pair, at threshold 0 and at the CLI's
   default threshold. *)
let test_hy_fits_every_region_pair () =
  let small = network ~nodes:220 ~seed:91 () in
  let p = DB.prepare ~page_size:256 small in
  List.iter
    (fun (name, db) ->
      let part = db.DB.partition in
      let regions = part.Psp_partition.Kdtree.region_count in
      let node r = (Psp_partition.Kdtree.nodes_of_region part r).(0) in
      for rs = 0 to regions - 1 do
        for rt = 0 to regions - 1 do
          let walk, _ = reference_walk db (node rs, node rt) in
          if String.ends_with ~suffix:"exceeded\n" walk then
            Alcotest.fail
              (Printf.sprintf "HY %s: regions %d -> %d outgrow the plan" name rs rt)
        done
      done)
    [ ("threshold 0", DB.build_hy ~prepared:p ~threshold:0 ~page_size:256 small);
      ( "default threshold",
        DB.build_hy ~prepared:p
          ~threshold:(max 1 (DB.prepared_max_cardinality p / 3))
          ~page_size:256 small ) ]

(* Calibration starts from the whole-file plan, so its result does not
   depend on the plan it is given: re-calibrating changes nothing, and a
   plan tightened on a smaller workload does not cap a larger one. *)
let test_calibrate_idempotent () =
  let plan db = db.DB.header.Psp_index.Header.plan in
  let lm, _ = DB.build_lm ~anchors:4 ~seed:2 ~page_size g in
  let af, _ = DB.build_af ~target_regions:14 ~page_size g in
  List.iter
    (fun (name, calibrate, db) ->
      let once = calibrate db ~queries in
      let check what db' =
        Alcotest.(check bool)
          (Format.asprintf "%s %s: %a = %a" name what QP.pp (plan once) QP.pp (plan db'))
          true
          (plan once = plan db')
      in
      check "twice" (calibrate once ~queries);
      check "from a tighter plan"
        (calibrate (calibrate db ~queries:(Array.sub queries 0 3)) ~queries))
    [ ("LM", Calibrate.lm, lm); ("AF", Calibrate.af, af) ]

(* The whole pipeline as one property: over random road networks and any
   scheme, every query is exact and every trace is plan-shaped. *)
let e2e_property =
  let gen =
    QCheck2.Gen.(
      let* nodes = int_range 60 220 in
      let* seed = int_range 0 100_000 in
      let* scheme = int_range 0 3 in
      return (nodes, seed, scheme))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:12 ~name:"random network x scheme: exact and plan-shaped" gen
       (fun (nodes, seed, scheme) ->
         let g = network ~nodes ~seed () in
         let db =
           match scheme with
           | 0 -> DB.build_ci ~page_size:256 g
           | 1 -> DB.build_pi ~page_size:256 g
           | 2 -> DB.build_hy ~threshold:5 ~page_size:256 g
           | _ -> DB.build_pi_star ~cluster:2 ~page_size:256 g
         in
         let server = Server.create ~cost ~key (DB.files db) in
         let qs = Psp_netgen.Synthetic.random_queries g ~count:6 ~seed:(seed + 1) in
         let header_pages = PF.page_count db.DB.header_file in
         Array.for_all
           (fun (s, t) ->
             let r = Client.query_nodes server g s t in
             let truth = Psp_graph.Dijkstra.distance g s t in
             let exact =
               match r.Client.path with
               | Some (_, got) -> close_cost got truth
               | None -> false
             in
             let shaped =
               Privacy.conforms db.DB.header ~header_pages r.Client.stats.Session.trace
               = Ok ()
             in
             exact && shaped)
           qs))

(* ------------------------------------------------------------------ *)
(* The client store against its predecessor.  [Ref_store] is the
   Hashtbl-keyed store the flat, local-id store replaced, kept as the
   reference and fed the records [Encoding.decode_region] builds, while
   [Store] files the same bytes through [Encoding.fold_region].  On
   random networks split into random regions, under the plain,
   quantized, LM and AF region configs, delivered in random order with
   duplicates and interleaved subgraph triples, both must hold the same
   records and adjacency, snap to the same node and return the same
   path with a bit-identical cost — in a fresh store and in one reused
   from the free list after a larger filing. *)

module Ref_store = struct
  module E = Psp_index.Encoding

  type t = {
    records : (int, E.node_record) Hashtbl.t;
    adj : (int, E.adj Psp_util.Dyn_array.t) Hashtbl.t;
    by_region : (int, E.node_record list) Hashtbl.t;
  }

  let create () =
    { records = Hashtbl.create 256; adj = Hashtbl.create 256; by_region = Hashtbl.create 8 }

  let adj_of store v =
    match Hashtbl.find_opt store.adj v with
    | Some a -> a
    | None ->
        let a = Psp_util.Dyn_array.create () in
        Hashtbl.replace store.adj v a;
        a

  let record store v = Hashtbl.find_opt store.records v

  let out store v =
    match Hashtbl.find_opt store.adj v with
    | None -> []
    | Some a -> Array.to_list (Psp_util.Dyn_array.to_array a)

  let add_record store region (r : E.node_record) =
    if not (Hashtbl.mem store.records r.E.id) then begin
      Hashtbl.replace store.records r.E.id r;
      Hashtbl.replace store.by_region region
        (r :: Option.value ~default:[] (Hashtbl.find_opt store.by_region region));
      List.iter (Psp_util.Dyn_array.push (adj_of store r.E.id)) r.E.adj
    end

  let add_triple store (t : E.edge_triple) =
    Psp_util.Dyn_array.push (adj_of store t.E.e_src)
      { E.target = t.E.e_dst; weight = t.E.e_weight; target_region = -1; flags = None }

  let snap store region ~x ~y =
    match Hashtbl.find_opt store.by_region region with
    | None | Some [] -> failwith "Client: located region holds no nodes"
    | Some records ->
        let best = ref (List.hd records) and best_d = ref infinity in
        List.iter
          (fun (r : E.node_record) ->
            let dx = r.E.x -. x and dy = r.E.y -. y in
            let d = (dx *. dx) +. (dy *. dy) in
            if d < !best_d then begin
              best := r;
              best_d := d
            end)
          records;
        !best.E.id

  let dijkstra store ~source ~target =
    if source = target then Some ([ source ], 0.0)
    else begin
      let dist = Hashtbl.create 256 and parent = Hashtbl.create 256 in
      let closed = Hashtbl.create 256 in
      let heap = Psp_util.Min_heap.create () in
      Hashtbl.replace dist source 0.0;
      Psp_util.Min_heap.push heap ~priority:0.0 source;
      let found = ref false in
      while (not !found) && not (Psp_util.Min_heap.is_empty heap) do
        let d = Psp_util.Min_heap.min_priority heap in
        let u = Psp_util.Min_heap.pop_min heap in
        if not (Hashtbl.mem closed u) then begin
          Hashtbl.replace closed u ();
          if u = target then found := true
          else
            List.iter
              (fun (e : E.adj) ->
                let v = e.E.target in
                let nd = d +. e.E.weight in
                let better =
                  match Hashtbl.find_opt dist v with
                  | Some old -> nd < old
                  | None -> true
                in
                if better then begin
                  Hashtbl.replace dist v nd;
                  Hashtbl.replace parent v u;
                  Psp_util.Min_heap.push heap ~priority:nd v
                end)
              (out store u)
        end
      done;
      if not !found then None
      else begin
        let rec build v acc =
          match Hashtbl.find_opt parent v with
          | None -> v :: acc
          | Some p -> build p (v :: acc)
        in
        Some (build target [], Hashtbl.find dist target)
      end
    end
end

type store_case = {
  config : int;  (* 0 plain, 1 quantized, 2 LM, 3 AF *)
  flag_bits : int;  (* AF only *)
  coords : (int * int) array;  (* per node; small grid, so snaps tie *)
  region_of : int array;
  edges : (int * int * int) list;  (* src, dst, weight in 1..3: ties, exact sums *)
  ops : [ `Region of int | `Triple of int ] list;  (* deliveries, in order *)
}

let region_config c =
  let module E = Psp_index.Encoding in
  match c.config with
  | 0 -> E.plain_config
  | 1 -> { E.plain_config with E.quantize = 0.05 }
  | 2 -> { E.plain_config with E.with_region_ids = true; landmark_anchors = 2 }
  | _ -> { E.plain_config with E.with_region_ids = true; flag_bits = c.flag_bits }

(* Sparse global ids exercise the id table's probing; the network the
   regions are encoded from pads the gaps with isolated nodes. *)
let case_gid i = (i * 13) + 5

let store_case_gen =
  QCheck2.Gen.(
    let* config = int_bound 3 in
    let* flag_bits = int_range 1 20 in
    let* n = int_range 1 24 in
    let* k = int_range 1 5 in
    let* coords = array_size (return n) (pair (int_bound 4) (int_bound 4)) in
    let* region_of = array_size (return n) (int_bound (k - 1)) in
    let* edges =
      list_size (int_bound (3 * n)) (triple (int_bound (n - 1)) (int_bound (n - 1)) (int_range 1 3))
    in
    let m = List.length edges in
    let op =
      if m = 0 then map (fun r -> `Region r) (int_bound (k - 1))
      else
        frequency
          [ (3, map (fun r -> `Region r) (int_bound (k - 1)));
            (1, map (fun e -> `Triple e) (int_bound (m - 1))) ]
    in
    let* ops = list_size (int_bound (3 * k)) op in
    (* half the cases end with every region delivered, in random order *)
    let* complete = bool in
    let* all = shuffle_l (List.init k (fun r -> `Region r)) in
    return
      { config; flag_bits; coords; region_of; edges; ops = (if complete then ops @ all else ops) })

let print_store_case c =
  Printf.sprintf "config=%d flag_bits=%d coords=[%s] regions=[%s] edges=[%s] ops=[%s]" c.config
    c.flag_bits
    (String.concat ";" (Array.to_list (Array.map (fun (x, y) -> Printf.sprintf "%d,%d" x y) c.coords)))
    (String.concat ";" (Array.to_list (Array.map string_of_int c.region_of)))
    (String.concat ";" (List.map (fun (u, v, w) -> Printf.sprintf "%d>%d:%d" u v w) c.edges))
    (String.concat ";"
       (List.map (function `Region r -> Printf.sprintf "R%d" r | `Triple e -> Printf.sprintf "T%d" e)
          c.ops))

(* The case's regions as encoded blobs, under its config. *)
let case_blobs c config =
  let module E = Psp_index.Encoding in
  let n = Array.length c.coords in
  let member j = j mod 13 = 5 && j / 13 < n in
  let b = G.Builder.create () in
  for j = 0 to case_gid n do
    let x, y = if member j then c.coords.(j / 13) else (0, 0) in
    ignore (G.Builder.add_node b ~x:(float_of_int x) ~y:(float_of_int y))
  done;
  List.iter (fun (u, v, w) -> G.Builder.add_edge b (case_gid u) (case_gid v) (float_of_int w)) c.edges;
  let net = G.Builder.freeze b in
  let region_of = Array.init (G.node_count net) (fun j -> if member j then c.region_of.(j / 13) else 0) in
  let landmark =
    if config.E.landmark_anchors = 0 then None
    else Some (Psp_graph.Landmark.select_farthest net ~count:config.E.landmark_anchors ~seed:3)
  in
  let flags =
    if config.E.flag_bits = 0 then None
    else
      Some
        (fun e ->
          Psp_util.Bitset.of_list config.E.flag_bits
            [ e mod config.E.flag_bits; ((7 * e) + c.flag_bits) mod config.E.flag_bits ])
  in
  fun r ->
    E.encode_region config net ~region_of ?landmark ?flags
      (Array.of_list (List.map case_gid (List.filter (fun i -> c.region_of.(i) = r) (List.init n Fun.id))))

(* A whole network filed under another config, then solved: the store
   the free list hands out next has grown tables and stale entries. *)
let dirty_region =
  lazy (Psp_index.Encoding.encode_region Psp_index.Encoding.plain_config g (Array.init (G.node_count g) Fun.id))

let reused_store () =
  let d = Store.acquire () in
  Store.add_region d Psp_index.Encoding.plain_config 0 (Lazy.force dirty_region);
  ignore (Store.dijkstra d ~source:0 ~target:(G.node_count g - 1));
  Store.release d;
  let st = Store.acquire () in
  if st != d then Alcotest.fail "the free list did not hand back the released store";
  st

let store_agrees c (config : Psp_index.Encoding.config) st rf =
  let module E = Psp_index.Encoding in
  let n = Array.length c.coords in
  let ids = case_gid n :: List.init n case_gid in
  let floats_equal a b = Array.length a = Array.length b && Array.for_all2 Float.equal a b in
  let records_agree =
    List.for_all
      (fun v ->
        match Ref_store.record rf v with
        | None -> not (Store.has_record st v)
        | Some r ->
            Store.has_record st v
            && Float.equal (Store.x st v) r.E.x
            && Float.equal (Store.y st v) r.E.y
            &&
            match r.E.landmark with
            | None -> config.E.landmark_anchors = 0
            | Some (to_a, from_a) ->
                let a = config.E.landmark_anchors in
                let t = Array.make a nan and f = Array.make a nan in
                Store.landmarks st v ~to_anchor:t ~from_anchor:f;
                floats_equal t to_a && floats_equal f from_a)
      ids
  in
  let filed_any = List.exists (function `Region _ -> true | `Triple _ -> false) c.ops in
  let flags_agree = Store.has_flags st = (filed_any && config.E.flag_bits > 0) in
  let adjacency_agrees =
    List.for_all
      (fun v ->
        List.for_all
          (fun flag ->
            let got = ref [] in
            Store.iter_out st v ~flag (fun ~target ~weight ~target_region ~flagged ->
                got := (target, weight, target_region, flagged) :: !got);
            let want =
              List.map
                (fun (e : E.adj) ->
                  ( e.E.target,
                    e.E.weight,
                    e.E.target_region,
                    match e.E.flags with Some b -> Psp_util.Bitset.mem b flag | None -> false ))
                (Ref_store.out rf v)
            in
            List.rev !got = want)
          (List.init (max 1 config.E.flag_bits) Fun.id))
      ids
  in
  let same_answer a b =
    match (a, b) with
    | None, None -> true
    | Some (p, d), Some (q, e) -> p = q && Float.equal d e
    | _ -> false
  in
  let snaps_agree =
    let k = Array.fold_left max 0 c.region_of + 1 in
    List.for_all
      (fun r ->
        List.for_all
          (fun (x, y) ->
            let snap f = match f r ~x ~y with v -> Some v | exception Failure _ -> None in
            snap (Store.snap st) = snap (Ref_store.snap rf))
          ((2.5, 1.5) :: Array.to_list (Array.map (fun (x, y) -> (float_of_int x, float_of_int y)) c.coords)))
      (List.init k Fun.id)
  in
  let answers_agree =
    List.for_all
      (fun s ->
        List.for_all
          (fun t ->
            same_answer (Store.dijkstra st ~source:s ~target:t) (Ref_store.dijkstra rf ~source:s ~target:t))
          ids)
      ids
  in
  (* with every region filed, the store holds the whole network (triples
     only duplicate its edges), so costs are the network's: exact sums
     of integer weights, or of grid weights up to rounding *)
  let delivered r = List.mem (`Region r) c.ops in
  let oracle_agrees =
    (not (Array.for_all delivered c.region_of))
    ||
    let b = G.Builder.create () in
    Array.iter (fun (x, y) -> ignore (G.Builder.add_node b ~x:(float_of_int x) ~y:(float_of_int y))) c.coords;
    List.iter
      (fun (u, v, w) -> G.Builder.add_edge b u v (E.quantize_up ~epsilon:config.E.quantize (float_of_int w)))
      c.edges;
    let g = G.Builder.freeze b in
    List.for_all
      (fun s ->
        List.for_all
          (fun t ->
            let truth = Psp_graph.Dijkstra.distance g s t in
            match Store.dijkstra st ~source:(case_gid s) ~target:(case_gid t) with
            | None -> truth = infinity
            | Some (_, d) ->
                if config.E.quantize = 0.0 then Float.equal d truth
                else Float.abs (d -. truth) <= 1e-9 *. truth)
          (List.init n Fun.id))
      (List.init n Fun.id)
  in
  records_agree && flags_agree && adjacency_agrees && snaps_agree && answers_agree && oracle_agrees

let store_matches_reference c =
  let module E = Psp_index.Encoding in
  let config = region_config c in
  let blob = case_blobs c config in
  let edges = Array.of_list c.edges in
  let fresh = Store.create () and reused = reused_store () and rf = Ref_store.create () in
  let stores = [ fresh; reused ] in
  List.iter
    (function
      | `Region r ->
          let bytes = blob r in
          List.iter (fun st -> Store.add_region st config r bytes) stores;
          List.iter (Ref_store.add_record rf r) (E.decode_region config bytes)
      | `Triple e ->
          let u, v, w = edges.(e) in
          let t =
            { E.e_src = case_gid u;
              e_dst = case_gid v;
              e_weight = E.quantize_up ~epsilon:config.E.quantize (float_of_int w) }
          in
          List.iter (fun st -> Store.add_triple st t) stores;
          Ref_store.add_triple rf t)
    c.ops;
  let agree = List.for_all (fun st -> store_agrees c config st rf) stores in
  Store.release reused;
  agree

let store_reference_property =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"flat store = Hashtbl reference" ~print:print_store_case
       store_case_gen store_matches_reference)

(* Store reuse end to end.  One domain runs queries A, B, A at widths 1
   and 8, then walks aborted mid-plan by an injected fault (their
   stores are never handed back), then A, B, A again; every answer must
   equal the one computed in a fresh domain, whose free list is empty
   as in a new process. *)
let test_arena_reuse () =
  let module Fault = Psp_fault.Fault in
  List.iter
    (fun name ->
      let db = List.assoc name (Lazy.force databases) in
      let server = Server.create ~cost ~key (DB.files db) in
      let a = queries.(0) and b = queries.(1) in
      let fresh (s, t) =
        Domain.join (Domain.spawn (fun () -> (Client.query_nodes server g s t).Client.path))
      in
      let want_a = fresh a and want_b = fresh b in
      let check what want (r : Client.result) =
        match (want, r.Client.path) with
        | Some (p, d), Some (q, e) when p = q && Float.equal d e -> ()
        | None, None -> ()
        | _ -> Alcotest.failf "%s %s: answer differs from a fresh domain's" name what
      in
      let batch = [| a; b; a; b; a; a; b; a |] in
      let round tag =
        List.iteri
          (fun i ((s, t), want) ->
            check (Printf.sprintf "%s w1 #%d" tag i) want (Client.query_nodes server g s t))
          [ (a, want_a); (b, want_b); (a, want_a) ];
        Array.iteri
          (fun i r ->
            check (Printf.sprintf "%s w8 #%d" tag i) (if batch.(i) == a then want_a else want_b) r)
          (Client.query_nodes_batch server g batch)
      in
      round "warm";
      (* abort a third, half and all but one of the way through the plan *)
      Fault.arm "pir.fetch.transient" Fault.Never;
      (let s, t = a in
       ignore (Client.query_nodes server g s t));
      let fetches = Fault.hits "pir.fetch.transient" in
      List.iter
        (fun up ->
          Fault.reset ();
          Fault.arm "pir.fetch.transient" (Fault.Flapping { up; down = 1000 });
          let s, t = a in
          let aborted (r : Client.result) =
            match r.Client.status with Client.Unavailable _ -> true | _ -> false
          in
          if not (aborted (Client.query_nodes server g s t)) then
            Alcotest.failf "%s: the width-1 walk was not aborted" name;
          Fault.rewind ();
          if not (Array.for_all aborted (Client.query_nodes_batch server g batch)) then
            Alcotest.failf "%s: the width-8 walk was not aborted" name)
        [ fetches / 3; fetches / 2; fetches - 1 ];
      Fault.reset ();
      round "after aborts")
    [ "CI"; "PI"; "HY"; "LM"; "AF" ]

let scheme_cases =
  List.concat_map
    (fun name ->
      [ Alcotest.test_case (name ^ " correct") `Slow (test_scheme_correct name);
        Alcotest.test_case (name ^ " private") `Slow (test_scheme_private name) ])
    [ "CI"; "PI"; "HY"; "PI*"; "LM"; "AF" ]

let () =
  Alcotest.run "core"
    [ ("schemes", scheme_cases @ [ e2e_property ]);
      ( "rounds",
        [ Alcotest.test_case "CI has 4 rounds" `Quick (test_scheme_rounds "CI" 4);
          Alcotest.test_case "PI has 3 rounds" `Quick (test_scheme_rounds "PI" 3);
          Alcotest.test_case "PI* has 3 rounds" `Quick (test_scheme_rounds "PI*" 3);
          Alcotest.test_case "HY has 4 rounds" `Quick (test_scheme_rounds "HY" 4) ] );
      ( "edge cases",
        [ Alcotest.test_case "s = t" `Quick test_self_query;
          Alcotest.test_case "same region" `Quick test_same_region_query ] );
      ( "oblivious",
        [ Alcotest.test_case "oram end-to-end" `Slow test_oblivious_mode_end_to_end;
          Alcotest.test_case "modes share one view" `Quick test_modes_identical_traces ] );
      ( "response time",
        [ Alcotest.test_case "components" `Quick test_response_time_components;
          Alcotest.test_case "plan = stats, all schemes" `Quick test_plan_fetches_match_stats;
          Alcotest.test_case "algebra" `Quick test_response_time_algebra ] );
      ( "obf",
        [ Alcotest.test_case "returns real path" `Quick test_obf_returns_real_path;
          Alcotest.test_case "near placement" `Quick test_obf_near_placement;
          Alcotest.test_case "cost grows" `Quick test_obf_cost_grows_with_set_size ] );
      ( "calibration",
        [ Alcotest.test_case "tightens LM plan" `Quick test_calibration_tightens_lm_plan;
          Alcotest.test_case "baselines fetch more" `Quick test_baselines_fetch_more_than_ci;
          Alcotest.test_case "idempotent" `Quick test_calibrate_idempotent ] );
      ( "one plan",
        [ Alcotest.test_case "LM out of calibration" `Slow (test_out_of_calibration "LM");
          Alcotest.test_case "AF out of calibration" `Slow (test_out_of_calibration "AF");
          Alcotest.test_case "overrun in a batch" `Quick test_overrun_in_batch;
          Alcotest.test_case "HY fits every region pair" `Quick
            test_hy_fits_every_region_pair ] );
      ( "approximation",
        [ Alcotest.test_case "bounded deviation" `Slow test_approximate_schemes;
          Alcotest.test_case "grid properties" `Quick test_quantize_grid ] );
      ( "persistence",
        [ Alcotest.test_case "bundle roundtrip" `Quick test_bundle_roundtrip ] );
      ( "checker",
        [ Alcotest.test_case "detects leaks" `Quick test_trace_leak_detection;
          Alcotest.test_case "error paths" `Quick test_error_paths ] );
      ( "page sequence",
        [ Alcotest.test_case "pinned digests" `Quick test_page_sequence_pinned ] );
      ( "store",
        [ store_reference_property;
          Alcotest.test_case "arena reuse = fresh domain" `Quick test_arena_reuse ] ) ]
