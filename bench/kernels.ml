(* Bechamel micro-benchmarks of the computational kernels underneath the
   schemes: exact search (point to point, and one full tree), pyramid
   ORAM batch fetches at the widths the serving path runs, crypto
   primitives and page checksums, the region reader alone and the client
   store's filing of a region blob through it, the store's final search
   (over every region, and over the regions one CI query files), the
   border-pair pre-computation, and one end-to-end private query per
   scheme.  These measure real wall-clock on this machine (the
   experiment tables report *simulated* 2012-hardware times instead). *)

open Bechamel
open Toolkit
module DB = Psp_index.Database
module G = Psp_graph.Graph

let tests env =
  let g = Harness.graph env Psp_netgen.Presets.Oldenburg in
  let queries = Harness.workload env Psp_netgen.Presets.Oldenburg in
  let pick =
    let i = ref 0 in
    fun () ->
      let q = queries.(!i mod Array.length queries) in
      incr i;
      q
  in
  let db = DB.build_ci ~page_size:env.Harness.page_size g in
  let server = Psp_pir.Server.create ~cost:env.Harness.cost ~key:Harness.key (DB.files db) in
  let store_file = Psp_storage.Page_file.create ~name:"k" ~page_size:4096 in
  for i = 0 to 255 do
    ignore (Psp_storage.Page_file.append store_file (Bytes.make 64 (Char.chr (i land 0xff))))
  done;
  let store = Psp_pir.Pyramid_store.create ~key:Harness.key store_file in
  let ids width = Array.init width (fun i -> (17 + (37 * i)) mod 256) in
  let blob = Bytes.make 4096 'x' in
  let chacha_key = Psp_crypto.Sha256.digest_string "bench" in
  let nonce = Bytes.make 12 'n' in
  (* a 4-round Feistel point (table lookups plus cycle walking) places
     each slot of a pyramid rebuild and probe; building the round
     tables is paid once per level epoch *)
  let perm = Psp_crypto.Feistel.create ~key:chacha_key ~domain:1000 in
  let config = Psp_index.Encoding.plain_config in
  let region_blob region =
    Psp_index.Encoding.encode_region config g
      (Psp_partition.Kdtree.nodes_of_region db.DB.partition region)
  in
  let region0 = region_blob 0 in
  (* the client layer under a CI query: its regions filed straight from
     their bytes, and the final search over them.  The solve runs over
     every region of the data file (a CI query at bench scale downloads
     16 of 19), filed once *)
  let solved = Psp_core.Store.create () in
  for r = 0 to db.DB.header.Psp_index.Header.region_count - 1 do
    Psp_core.Store.add_region solved config r (region_blob r)
  done;
  let reader = Psp_index.Encoding.region_buffer () in
  let page = Bytes.init 4096 (fun i -> Char.chr (i * 7 land 0xff)) in
  (* the border-pair pre-computation under every CI (sets) and PI
     (subgraphs) database build, on one domain *)
  let assignment = db.DB.partition.Psp_partition.Kdtree.assignment in
  let border =
    Psp_partition.Border.compute g ~assignment
      ~region_count:db.DB.partition.Psp_partition.Kdtree.region_count
  in
  (* one of the trees under each of those builds: the full tree from a
     border node, grown into a reused workspace as every build grows it *)
  let tree_ws = Psp_graph.Dijkstra.workspace g in
  let tree_source = (Psp_partition.Border.all_border_nodes border).(0) in
  (* one CI query's store: the source and target regions and their
     region set S_{rs,rt}, filed as the client files them *)
  let solve_s, solve_t = queries.(0) in
  let ci_store =
    let region v = Psp_partition.Kdtree.region_of_node db.DB.partition v in
    let sets =
      Psp_index.Precompute.compute ~domains:1 g ~assignment ~border ~want_sets:true
        ~want_subgraphs:false
    in
    let rs = region solve_s and rt = region solve_t in
    let st = Psp_core.Store.create () in
    List.iter
      (fun r -> Psp_core.Store.add_region st config r (region_blob r))
      (List.sort_uniq Int.compare
         (rs :: rt :: Array.to_list (Psp_index.Precompute.region_set sets rs rt)));
    st
  in
  let precompute ~want_sets =
    Staged.stage (fun () ->
        ignore
          (Psp_index.Precompute.compute ~domains:1 g ~assignment ~border ~want_sets
             ~want_subgraphs:(not want_sets)))
  in
  [ Test.make ~name:"dijkstra p2p" (Staged.stage (fun () ->
        let s, t = pick () in
        ignore (Psp_graph.Dijkstra.distance g s t)));
    (* the dispatched cores (SHA-NI, AVX2 where the CPU has them) beside
       the portable ones every other machine runs *)
    Test.make ~name:"sha256 4KB" (Staged.stage (fun () -> ignore (Psp_crypto.Sha256.digest blob)));
    Test.make ~name:"sha256 4KB portable" (Staged.stage (fun () ->
        let ctx = Psp_crypto.Sha256.Portable.init () in
        Psp_crypto.Sha256.feed ctx blob;
        ignore (Psp_crypto.Sha256.finalize ctx)));
    Test.make ~name:"chacha20 4KB" (Staged.stage (fun () ->
        ignore (Psp_crypto.Chacha20.encrypt ~key:chacha_key ~nonce blob)));
    (* the twins allocate their output, like the encrypt row above *)
    Test.make ~name:"chacha20 4KB portable" (Staged.stage (fun () ->
        let out = Bytes.create 4096 in
        Psp_crypto.Chacha20.Portable.encrypt_into ~key:chacha_key ~nonce ~src:blob out));
    (* d=24 is level 1's domain at cache capacity 4, rebuilt on every
       flush *)
    Test.make_indexed ~name:"feistel create d=" ~fmt:"%s%d" ~args:[ 24; 1000 ] (fun domain ->
        Staged.stage (fun () -> ignore (Psp_crypto.Feistel.create ~key:chacha_key ~domain)));
    Test.make ~name:"feistel forward" (Staged.stage (fun () ->
        ignore (Psp_crypto.Feistel.forward perm 617)));
    Test.make_indexed ~name:"pyramid fetch_many w" ~fmt:"%s%d" ~args:[ 1; 4; 16 ]
      (fun width ->
        let ids = ids width in
        (* drop the host-visible event log each run, as a server does
           after every pass, so the loop does not grow the heap *)
        Staged.stage (fun () ->
            ignore (Psp_pir.Pyramid_store.fetch_many store ids);
            Psp_pir.Pyramid_store.clear_trace store));
    Test.make ~name:"dijkstra tree" (Staged.stage (fun () ->
        Psp_graph.Dijkstra.grow tree_ws ~source:tree_source));
    Test.make ~name:"precompute sets" (precompute ~want_sets:true);
    Test.make ~name:"precompute subgraphs" (precompute ~want_sets:false);
    Test.make ~name:"crc32 4KB" (Staged.stage (fun () -> ignore (Psp_util.Crc32.digest page)));
    (* the one region reader, into a reused buffer *)
    Test.make ~name:"region read" (Staged.stage (fun () ->
        Psp_index.Encoding.read_region config reader region0));
    (* decode and filing in one pass, into a store from this domain's
       free list, as a query takes it *)
    Test.make ~name:"store file region" (Staged.stage (fun () ->
        let st = Psp_core.Store.acquire () in
        Psp_core.Store.add_region st config 0 region0;
        Psp_core.Store.release st));
    Test.make ~name:"store dijkstra" (Staged.stage (fun () ->
        let s, t = pick () in
        ignore (Psp_core.Store.dijkstra solved ~source:s ~target:t)));
    Test.make ~name:"store solve" (Staged.stage (fun () ->
        ignore (Psp_core.Store.dijkstra ci_store ~source:solve_s ~target:solve_t)));
    Test.make ~name:"CI private query e2e" (Staged.stage (fun () ->
        let s, t = pick () in
        ignore (Psp_core.Client.query_nodes server g s t))) ]
  (* the AVX2 core beside a faster dispatched one, where the CPU has it *)
  @
  if Psp_crypto.Chacha20.Avx2.core = "avx2" then
    [ Test.make ~name:"chacha20 4KB avx2" (Staged.stage (fun () ->
          let out = Bytes.create 4096 in
          Psp_crypto.Chacha20.Avx2.encrypt_into ~key:chacha_key ~nonce ~src:blob out)) ]
  else []

let run env =
  Harness.header_line "Bechamel kernels (real wall-clock on this machine)";
  let instances = [ Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:None () in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"kernels" ~fmt:"%s %s" (tests env))
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let ns =
        match Analyze.OLS.estimates ols with Some [ e ] -> e | _ -> nan
      in
      (* each row also lands in BENCH_kernels.json's metrics *)
      let kernel =
        match String.index_opt name ' ' with
        | Some k -> String.sub name (k + 1) (String.length name - k - 1)
        | None -> name
      in
      Psp_obs.Obs.set (Psp_obs.Obs.gauge ("kernel_us." ^ kernel)) (ns /. 1e3);
      rows := [ name; Printf.sprintf "%.1f us" (ns /. 1e3) ] :: !rows)
    results;
  Harness.table ~columns:[ "kernel"; "time/run" ] (List.sort compare !rows)
