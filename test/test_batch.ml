(* The batched multi-query session layer: Client.query_batch must serve
   every member exactly as a width-1 query would — same paths,
   same per-member adversary trace, same constant telemetry shape — while
   the merged oblivious-store passes amortize the PIR cost (Table 2) as
   the batch grows. *)

module DB = Psp_index.Database
module PF = Psp_storage.Page_file
module Server = Psp_pir.Server
module Session = Psp_pir.Server.Session
module F = Psp_fault.Fault
open Psp_core

let key = Psp_crypto.Sha256.digest_string "batch tests"
let cost = Psp_pir.Cost_model.ibm4764
let page_size = 256

let network ?(nodes = 150) ?(seed = 11) () =
  Psp_netgen.Synthetic.generate
    { Psp_netgen.Synthetic.nodes;
      edges = nodes + (nodes / 8);
      width = 1000.0;
      height = 1000.0;
      seed }

let g = network ()
let queries = Psp_netgen.Synthetic.random_queries g ~count:24 ~seed:7

let databases =
  lazy
    (let lm, _ = DB.build_lm ~anchors:4 ~seed:2 ~page_size g in
     let af, _ = DB.build_af ~target_regions:14 ~page_size g in
     let calib = Psp_netgen.Synthetic.random_queries g ~count:50 ~seed:33 in
     [ ("CI", DB.build_ci ~page_size g);
       ("PI", DB.build_pi ~page_size g);
       ("HY", DB.build_hy ~threshold:5 ~page_size g);
       ("PI*", DB.build_pi_star ~cluster:2 ~page_size g);
       ("LM", Calibrate.lm lm ~queries:calib);
       ("AF", Calibrate.af af ~queries:calib) ])

let server_of db = Server.create ~cost ~key (DB.files db)
let close_cost got truth = Float.abs (got -. truth) <= 1e-3 *. Float.max 1.0 truth

let check_paths_match name (seq : Client.result) (batch : Client.result) =
  match (seq.Client.path, batch.Client.path) with
  | None, None -> ()
  | Some (p1, c1), Some (p2, c2) ->
      Alcotest.(check (list int)) (name ^ ": same node sequence") p1 p2;
      Alcotest.(check bool) (name ^ ": same cost") true (close_cost c1 c2)
  | _ -> Alcotest.fail (name ^ ": sequential and batched answers disagree")

(* ------------------------------------------------------------------ *)
(* Batch vs sequential equivalence, for every scheme: identical paths
   and identical per-member adversary traces. *)

let test_equivalence () =
  List.iter
    (fun (name, db) ->
      let pairs = Array.sub queries 0 6 in
      let server = server_of db in
      let sequential = Array.map (fun (s, t) -> Client.query_nodes server g s t) pairs in
      let server = server_of db in
      let batched = Client.query_nodes_batch server g pairs in
      Alcotest.(check int) (name ^ ": one result per member") (Array.length pairs)
        (Array.length batched);
      Array.iteri
        (fun i seq ->
          let b = batched.(i) in
          check_paths_match (Printf.sprintf "%s[%d]" name i) seq b;
          Alcotest.(check string)
            (Printf.sprintf "%s[%d]: member trace equals sequential trace" name i)
            (Psp_pir.Trace.fingerprint seq.Client.stats.Session.trace)
            (Psp_pir.Trace.fingerprint b.Client.stats.Session.trace);
          Alcotest.(check int)
            (Printf.sprintf "%s[%d]: same region budget" name i)
            seq.Client.regions_fetched b.Client.regions_fetched)
        sequential)
    (Lazy.force databases)

(* Members of one batch must be mutually indistinguishable too — the
   whole premise of merging them into one oblivious pass. *)
let test_members_indistinguishable () =
  List.iter
    (fun (name, db) ->
      let server = server_of db in
      let batched = Client.query_nodes_batch server g (Array.sub queries 0 5) in
      let traces =
        Array.to_list
          (Array.map (fun (r : Client.result) -> r.Client.stats.Session.trace) batched)
      in
      match Privacy.indistinguishable traces with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Printf.sprintf "%s: batch members leak: %s" name e))
    (Lazy.force databases)

(* ------------------------------------------------------------------ *)
(* Correctness of answers straight from the batch, against the oracle. *)

let test_batch_correct () =
  List.iter
    (fun (name, db) ->
      let server = server_of db in
      let pairs = Array.sub queries 0 8 in
      let batched = Client.query_nodes_batch server g pairs in
      Array.iteri
        (fun i (r : Client.result) ->
          let s, t = pairs.(i) in
          let truth = Psp_graph.Dijkstra.distance g s t in
          match r.Client.path with
          | None -> Alcotest.fail (Printf.sprintf "%s: no path %d->%d" name s t)
          | Some (_, got) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: %d->%d exact" name s t)
                true (close_cost got truth))
        batched)
    (Lazy.force databases)

(* query_nodes (the node-id adapter) resolves coordinates through the
   graph and must agree with a raw coordinate query. *)
let test_query_nodes () =
  let db = List.assoc "CI" (Lazy.force databases) in
  let server = server_of db in
  Array.iter
    (fun (s, t) ->
      let by_nodes = Client.query_nodes server g s t in
      let sx, sy = Psp_graph.Graph.coords g s in
      let tx, ty = Psp_graph.Graph.coords g t in
      let by_coords = (Client.query_batch server [| { Client.sx; sy; tx; ty } |]).(0) in
      check_paths_match "query_nodes vs query_batch" by_nodes by_coords)
    (Array.sub queries 0 5)

(* ------------------------------------------------------------------ *)
(* Cost model: a width-1 batch costs exactly a sequential query; wider
   batches amortize the per-query PIR time strictly. *)

let test_width_one_cost () =
  let db = List.assoc "CI" (Lazy.force databases) in
  let s, t = queries.(0) in
  let seq = Client.query_nodes (server_of db) g s t in
  let batched = Client.query_nodes_batch (server_of db) g [| (s, t) |] in
  Alcotest.(check int) "one member" 1 (Array.length batched);
  Alcotest.(check (float 1e-9))
    "width-1 batch pir_seconds = sequential"
    seq.Client.stats.Session.pir_seconds
    batched.(0).Client.stats.Session.pir_seconds

let test_amortization () =
  List.iter
    (fun (name, db) ->
      let widths = [ 1; 2; 4; 8 ] in
      let per_query =
        List.map
          (fun w ->
            let pairs = Array.init w (fun i -> queries.(i mod Array.length queries)) in
            let rs = Client.query_nodes_batch (server_of db) g pairs in
            Array.fold_left
              (fun acc (r : Client.result) -> acc +. r.Client.stats.Session.pir_seconds)
              0.0 rs
            /. float_of_int w)
          widths
      in
      let rec strictly_decreasing = function
        | a :: (b :: _ as rest) ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: amortized PIR time decreases with batch size" name)
              true (b < a);
            strictly_decreasing rest
        | _ -> ()
      in
      strictly_decreasing per_query)
    [ ("CI", List.assoc "CI" (Lazy.force databases));
      ("HY", List.assoc "HY" (Lazy.force databases)) ]

(* ------------------------------------------------------------------ *)
(* Constant telemetry shape: batched same-plan queries must leave the
   same registry shape as sequential ones (DESIGN.md §5). *)

let test_batch_shape () =
  let db = List.assoc "CI" (Lazy.force databases) in
  let shape_of f =
    Psp_obs.Obs.reset ();
    f ();
    Psp_obs.Obs.shape ()
  in
  let server = server_of db in
  let s1 =
    shape_of (fun () ->
        Array.iter
          (fun (s, t) -> ignore (Client.query_nodes server g s t))
          (Array.sub queries 0 3))
  in
  let server = server_of db in
  let s2 =
    shape_of (fun () -> ignore (Client.query_nodes_batch server g (Array.sub queries 0 3)))
  in
  let server = server_of db in
  let s3 =
    shape_of (fun () -> ignore (Client.query_nodes_batch server g (Array.sub queries 3 3)))
  in
  (* same plan and same (public) width => byte-identical registry shape,
     whatever the members' secret endpoints are; sequential runs differ
     only by the batch-only instruments *)
  Alcotest.(check string) "same shape across same-width batches" s2 s3;
  Alcotest.(check bool) "shapes non-empty" true (String.length s1 > 0)

(* ------------------------------------------------------------------ *)
(* Failure handling: a hostile schedule exhausts the retry budget and
   degrades every member to Unavailable identically. *)

let test_batch_unavailable () =
  let db = List.assoc "CI" (Lazy.force databases) in
  let server = server_of db in
  F.arm "pir.fetch.transient" F.Always;
  Fun.protect ~finally:F.reset (fun () ->
      let retry = { Client.max_attempts = 3; base_backoff = 0.05 } in
      let batched = Client.query_nodes_batch ~retry server g (Array.sub queries 0 3) in
      Array.iter
        (fun (r : Client.result) ->
          match r.Client.status with
          | Client.Unavailable { point = "pir.fetch.transient"; attempts = 3 } ->
              Alcotest.(check bool) "no path" true (r.Client.path = None)
          | _ -> Alcotest.fail "expected every member Unavailable at the failpoint")
        batched)

(* A finite hostile prefix degrades but still serves — and members stay
   mutually indistinguishable because retries are batch-granular. *)
let test_batch_degraded_indistinguishable () =
  let db = List.assoc "CI" (Lazy.force databases) in
  let server = server_of db in
  F.arm "pir.fetch.transient" (F.Hits [ 2; 5 ]);
  Fun.protect ~finally:F.reset (fun () ->
      let pairs = Array.sub queries 0 4 in
      let batched = Client.query_nodes_batch server g pairs in
      Array.iteri
        (fun i (r : Client.result) ->
          let s, t = pairs.(i) in
          let truth = Psp_graph.Dijkstra.distance g s t in
          (match r.Client.path with
          | Some (_, got) ->
              Alcotest.(check bool) "correct under faults" true (close_cost got truth)
          | None -> Alcotest.fail "no path under recoverable faults");
          match r.Client.status with
          | Client.Degraded _ | Client.Served -> ()
          | _ -> Alcotest.fail "expected Served/Degraded under a finite schedule")
        batched;
      let traces =
        Array.to_list
          (Array.map (fun (r : Client.result) -> r.Client.stats.Session.trace) batched)
      in
      match Privacy.indistinguishable traces with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("members diverged under faults: " ^ e))

(* 32-seed sweep: each seed derives a recoverable fault schedule and a
   fresh 3-member batch — the members must stay mutually
   indistinguishable, and two different batches under the same replayed
   schedule must expose identical per-member traces. *)
let test_batch_seed_sweep () =
  let db = List.assoc "CI" (Lazy.force databases) in
  for seed = 0 to 31 do
    let rng = Psp_util.Rng.create (0xba7c4 + seed) in
    let pick n = 1 + Psp_util.Rng.int rng n in
    let arms =
      List.filteri
        (fun i _ -> i = seed mod 2 || Psp_util.Rng.int rng 2 = 0)
        [ ("pir.fetch.transient", F.Hits [ pick 6; 6 + pick 6 ]);
          ("pir.fetch.corrupt", F.Hits [ pick 10 ]) ]
    in
    List.iter (fun (p, s) -> F.arm p s) arms;
    Fun.protect ~finally:F.reset (fun () ->
        let run pairs =
          F.rewind ();
          let batched = Client.query_nodes_batch (server_of db) g pairs in
          let traces =
            Array.to_list
              (Array.map
                 (fun (r : Client.result) -> r.Client.stats.Session.trace)
                 batched)
          in
          (match Privacy.indistinguishable traces with
          | Ok () -> ()
          | Error e ->
              Alcotest.fail (Printf.sprintf "seed %d: members diverged: %s" seed e));
          List.map Psp_pir.Trace.fingerprint traces
        in
        let a = run (Array.sub queries 0 3) and b = run (Array.sub queries 3 3) in
        Alcotest.(check (list string))
          (Printf.sprintf "seed %d: distinct batches, equal traces" seed)
          a b)
  done

(* ------------------------------------------------------------------ *)
(* The executed merged pass: width-k fetch_many must leave per-member
   slot traces byte-identical to k sequential reads, and its executed
   page-touch count must equal the cost model's batched basis. *)

module PS = Psp_pir.Pyramid_store
module CM = Psp_pir.Cost_model

let make_file ?(name = "data") ~pages ~page_size () =
  let f = PF.create ~name ~page_size in
  for i = 0 to pages - 1 do
    ignore (PF.append f (Bytes.of_string (Printf.sprintf "page-%06d" i)))
  done;
  f

(* Capture, on a twin store, each member's own sequential event list
   (clearing the trace between reads), together with its payload. *)
let sequential_members store ids =
  Array.map
    (fun id ->
      PS.clear_trace store;
      let page = PS.read store id in
      (page, PS.physical_trace store))
    ids

(* Pyramid: the merged trace must be, per flush-cadence chunk, the
   level-major reorder of the members' sequential traces — each level
   scan touches the chunk's planned slots in member order — with the
   flush's rebuild events (recorded by the chunk's last member
   sequentially) following the chunk, as they do sequentially. *)
let test_pyramid_fetch_many_trace () =
  let pages = 60 and page_size = 32 in
  (* duplicates (in and across chunks) exercise the pending/cache routing *)
  let ids = [| 3; 41; 3; 17; 59; 0; 41; 8; 3 |] in
  let mk () = PS.create ~key (make_file ~pages ~page_size ()) in
  let seq = mk () and mrg = mk () in
  let members = sequential_members seq ids in
  PS.clear_trace mrg;
  let got = PS.fetch_many mrg ids in
  Array.iteri
    (fun m (page, _) ->
      Alcotest.(check string)
        (Printf.sprintf "member %d payload equals sequential" m)
        (Bytes.to_string page)
        (Bytes.to_string got.(m)))
    members;
  let cap = PS.cache_capacity mrg and nlevels = PS.level_count mrg in
  let k = Array.length ids in
  let expected = ref [] in
  let base = ref 0 in
  while !base < k do
    let chunk = min (k - !base) cap in
    for l = 0 to nlevels - 1 do
      for m = !base to !base + chunk - 1 do
        let _, tr = members.(m) in
        expected := List.nth tr l :: !expected
      done
    done;
    for m = !base to !base + chunk - 1 do
      let _, tr = members.(m) in
      List.iteri (fun i e -> if i >= nlevels then expected := e :: !expected) tr
    done;
    base := !base + chunk
  done;
  Alcotest.(check bool)
    "merged trace = level-major reorder of the sequential member traces" true
    (PS.physical_trace mrg = List.rev !expected)

(* The executed page-touch count is the cost model's basis, width by
   width: a width-k pass touches one slot per level per member — the
   first member's pass plus batch_probe_touches marginal ones — and
   scans each level once per flush-cadence chunk. *)
let test_executed_touches_match_basis () =
  let pages = 60 in
  List.iter
    (fun batch ->
      let s = PS.create ~key (make_file ~pages ~page_size:32 ()) in
      let levels = PS.level_count s in
      Alcotest.(check int) "store depth = Cost_model.pyramid_levels"
        (CM.pyramid_levels ~cache_capacity:PS.default_cache_capacity ~file_pages:pages)
        levels;
      let touches0 = PS.slot_touches s and scans0 = PS.level_scans s in
      let ids = Array.init batch (fun i -> (i * 7) mod pages) in
      ignore (PS.fetch_many s ids);
      Alcotest.(check int)
        (Printf.sprintf "width %d: executed touches = levels + marginal basis" batch)
        (levels + CM.batch_probe_touches ~levels ~batch)
        (PS.slot_touches s - touches0);
      let cap = PS.cache_capacity s in
      Alcotest.(check int)
        (Printf.sprintf "width %d: one scan per level per chunk" batch)
        (levels * ((batch + cap - 1) / cap))
        (PS.level_scans s - scans0))
    [ 1; 4; 16 ]

(* Through the server: a `Pyramid batch executes levels·width touches,
   and the simulated charge the members share is exactly the batched
   pass cost derived from the same levels — executed and simulated
   agree by construction. *)
let test_server_executed_vs_simulated () =
  let pages = 60 in
  List.iter
    (fun width ->
      let f = make_file ~name:"file" ~pages ~page_size:32 () in
      let server = Server.create ~mode:`Pyramid ~cost ~key [ f ] in
      let levels =
        CM.pyramid_levels ~cache_capacity:PS.default_cache_capacity ~file_pages:pages
      in
      let b = Session.start server ~width in
      let touches0 = Server.executed_slot_touches server in
      let scans0 = Server.executed_level_scans server in
      ignore
        (Session.fetch b ~file:"file" ~pages:(Array.init width (fun i -> (3 * i) mod pages)));
      Alcotest.(check int)
        (Printf.sprintf "width %d: executed touches = levels * width" width)
        (levels * width)
        (Server.executed_slot_touches server - touches0);
      Alcotest.(check bool) "level scans executed" true
        (Server.executed_level_scans server - scans0 >= levels);
      let stats = Session.finish b in
      let charged =
        Array.fold_left
          (fun acc (s : Session.stats) -> acc +. s.Session.pir_seconds)
          0.0 stats
      in
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "width %d: members' charges sum to the batched pass cost" width)
        (CM.pir_batch_fetch_seconds cost ~file_pages:pages ~levels ~batch:width)
        charged)
    [ 1; 4; 16 ]

(* Fault-schedule sweep over the merged executed pass: with a `Pyramid
   server the batch members must stay correct and mutually
   indistinguishable under recoverable schedules, exactly as in
   `Simulated mode. *)
let test_executed_fault_sweep () =
  let db = List.assoc "CI" (Lazy.force databases) in
  for seed = 0 to 7 do
    let rng = Psp_util.Rng.create (0x9a7e + seed) in
    let pick n = 1 + Psp_util.Rng.int rng n in
    List.iter
      (fun (p, s) -> F.arm p s)
      [ ("pir.fetch.transient", F.Hits [ pick 6 ]);
        ("pir.fetch.corrupt", F.Hits [ 6 + pick 6 ]) ];
    Fun.protect ~finally:F.reset (fun () ->
        F.rewind ();
        let server = Server.create ~mode:`Pyramid ~cost ~key (DB.files db) in
        let pairs = Array.sub queries 0 3 in
        let batched = Client.query_nodes_batch server g pairs in
        Array.iteri
          (fun i (r : Client.result) ->
            let s, t = pairs.(i) in
            let truth = Psp_graph.Dijkstra.distance g s t in
            match r.Client.path with
            | Some (_, got) ->
                Alcotest.(check bool)
                  (Printf.sprintf "seed %d: member %d correct under faults" seed i)
                  true (close_cost got truth)
            | None -> Alcotest.fail (Printf.sprintf "seed %d: no path" seed))
          batched;
        let traces =
          Array.to_list
            (Array.map (fun (r : Client.result) -> r.Client.stats.Session.trace) batched)
        in
        match Privacy.indistinguishable traces with
        | Ok () -> ()
        | Error e ->
            Alcotest.fail
              (Printf.sprintf "seed %d: members diverged on the executed pass: %s" seed e))
  done

(* ------------------------------------------------------------------ *)
(* An unknown scheme tag surfaces as a typed status — batch included. *)

let test_batch_unknown_scheme () =
  let db = List.assoc "CI" (Lazy.force databases) in
  let bad_header = { db.DB.header with Psp_index.Header.scheme = "??" } in
  let header_file = Psp_index.Header.to_page_file bad_header ~page_size in
  let files =
    header_file :: List.filter (fun f -> PF.name f <> "header") (DB.files db)
  in
  let server = Server.create ~cost ~key files in
  let batched = Client.query_nodes_batch server g (Array.sub queries 0 3) in
  Array.iter
    (fun (r : Client.result) ->
      match r.Client.status with
      | Client.Unknown_scheme { scheme = "??" } ->
          Alcotest.(check bool) "no path" true (r.Client.path = None)
      | _ -> Alcotest.fail "expected Unknown_scheme status for every member")
    batched

(* Degenerate widths. *)
let test_batch_edges () =
  let db = List.assoc "CI" (Lazy.force databases) in
  let server = server_of db in
  Alcotest.(check int) "empty batch" 0
    (Array.length (Client.query_batch server [||]));
  (match Session.start server ~width:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for width 0")

let () =
  Alcotest.run "batch"
    [ ( "equivalence",
        [ Alcotest.test_case "batch = sequential (paths, traces)" `Slow test_equivalence;
          Alcotest.test_case "members mutually indistinguishable" `Quick
            test_members_indistinguishable;
          Alcotest.test_case "batched answers exact" `Slow test_batch_correct;
          Alcotest.test_case "query_nodes = query" `Quick test_query_nodes ] );
      ( "cost",
        [ Alcotest.test_case "width-1 batch = sequential cost" `Quick test_width_one_cost;
          Alcotest.test_case "amortization" `Quick test_amortization ] );
      ( "telemetry",
        [ Alcotest.test_case "constant shape across batches" `Quick test_batch_shape ] );
      ( "failure",
        [ Alcotest.test_case "hostile schedule: all Unavailable" `Quick
            test_batch_unavailable;
          Alcotest.test_case "degraded but indistinguishable" `Quick
            test_batch_degraded_indistinguishable;
          Alcotest.test_case "32-seed schedule sweep" `Slow test_batch_seed_sweep ] );
      ( "executed",
        [ Alcotest.test_case "pyramid fetch_many trace = sequential" `Quick
            test_pyramid_fetch_many_trace;
          Alcotest.test_case "executed touches = cost basis (widths 1/4/16)" `Quick
            test_executed_touches_match_basis;
          Alcotest.test_case "server executed = simulated (widths 1/4/16)" `Quick
            test_server_executed_vs_simulated;
          Alcotest.test_case "fault sweep over the executed pass" `Slow
            test_executed_fault_sweep ] );
      ( "dispatch",
        [ Alcotest.test_case "unknown scheme status" `Quick test_batch_unknown_scheme;
          Alcotest.test_case "degenerate widths" `Quick test_batch_edges ] ) ]
