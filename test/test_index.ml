(* Index construction: encodings, pre-computation covering property,
   the compressed F_i builder, query plans, headers, and database
   builders' structural invariants. *)

module G = Psp_graph.Graph
module K = Psp_partition.Kdtree
module E = Psp_index.Encoding
module FB = Psp_index.Fi_builder
module QP = Psp_index.Query_plan
module DB = Psp_index.Database
module PF = Psp_storage.Page_file

let qtest ?(count = 30) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let network ?(nodes = 350) ?(seed = 11) () =
  Psp_netgen.Synthetic.generate
    { Psp_netgen.Synthetic.nodes;
      edges = nodes + (nodes / 8);
      width = 1000.0;
      height = 1000.0;
      seed }

let setup ?nodes ?seed ?(capacity = 400) () =
  let g = network ?nodes ?seed () in
  let node_bytes = E.node_bytes E.plain_config g in
  let t = K.build_packed g ~node_bytes ~capacity in
  let b = Psp_partition.Border.compute g ~assignment:t.K.assignment ~region_count:t.K.region_count in
  (g, t, b)

(* ------------------------------------------------------------------ *)
(* Encoding *)

let test_region_encoding_roundtrip () =
  let g, t, _ = setup () in
  for r = 0 to min 5 (t.K.region_count - 1) do
    let nodes = K.nodes_of_region t r in
    let blob = E.encode_region E.plain_config g nodes in
    let decoded = E.decode_region E.plain_config blob in
    Alcotest.(check int) "node count" (Array.length nodes) (List.length decoded);
    List.iteri
      (fun i (rec_ : E.node_record) ->
        let v = nodes.(i) in
        Alcotest.(check int) "id" v rec_.E.id;
        Alcotest.(check bool) "x f32-close" true (Float.abs (rec_.E.x -. G.x g v) < 0.1);
        Alcotest.(check int) "degree" (G.out_degree g v) (List.length rec_.E.adj);
        List.iter
          (fun (a : E.adj) ->
            let w = G.fold_out g v (fun acc e -> if e.G.dst = a.E.target then Some e.G.weight else acc) None in
            match w with
            | None -> Alcotest.fail "decoded edge not in graph"
            | Some w ->
                Alcotest.(check bool) "weight f32-close" true
                  (Float.abs (w -. a.E.weight) < 1e-3 *. Float.max 1.0 w))
          rec_.E.adj)
      decoded
  done

let test_node_bytes_matches_encoding () =
  let g, _, _ = setup () in
  let lm = Psp_graph.Landmark.select_farthest g ~count:3 ~seed:4 in
  let lm_config = { E.plain_config with E.landmark_anchors = 3 } in
  for v = 0 to min 50 (G.node_count g - 1) do
    let blob = E.encode_region E.plain_config g [| v |] in
    (* region blob = varint count (1 byte here) + node record *)
    Alcotest.(check int) "size prediction" (E.node_bytes E.plain_config g v)
      (Bytes.length blob - 1);
    (* a landmark vector is two float32 per anchor *)
    let blob = E.encode_region lm_config g ~landmark:lm [| v |] in
    Alcotest.(check int) "size prediction with 3 anchors" (E.node_bytes lm_config g v)
      (Bytes.length blob - 1);
    Alcotest.(check int) "8 bytes per anchor" (E.node_bytes E.plain_config g v + 24)
      (E.node_bytes lm_config g v)
  done

let test_landmark_flag_encoding () =
  let g, t, _ = setup () in
  let lm = Psp_graph.Landmark.select_farthest g ~count:3 ~seed:4 in
  let config = { E.plain_config with E.with_region_ids = true; landmark_anchors = 3 } in
  let nodes = K.nodes_of_region t 0 in
  let blob = E.encode_region config g ~region_of:t.K.assignment ~landmark:lm nodes in
  let decoded = E.decode_region config blob in
  List.iteri
    (fun i (rec_ : E.node_record) ->
      let v = nodes.(i) in
      (match rec_.E.landmark with
      | None -> Alcotest.fail "missing landmark vector"
      | Some (to_a, from_a) ->
          Alcotest.(check int) "vector length" 3 (Array.length to_a);
          for a = 0 to 2 do
            let expect = Psp_graph.Landmark.to_anchor lm a v in
            if expect < infinity then
              Alcotest.(check bool) "to-anchor close" true
                (Float.abs (to_a.(a) -. expect) < 0.5 +. (1e-4 *. expect));
            let expect = Psp_graph.Landmark.from_anchor lm a v in
            if expect < infinity then
              Alcotest.(check bool) "from-anchor close" true
                (Float.abs (from_a.(a) -. expect) < 0.5 +. (1e-4 *. expect))
          done);
      List.iter
        (fun (a : E.adj) ->
          Alcotest.(check int) "region id present" t.K.assignment.(a.E.target) a.E.target_region)
        rec_.E.adj)
    decoded;
  (* a record carries exactly the config's anchors, or nothing is encoded *)
  let encode config ?landmark () =
    ignore (E.encode_region config g ~region_of:t.K.assignment ?landmark nodes)
  in
  Alcotest.check_raises "landmarks absent"
    (Invalid_argument "Encoding.encode_node: landmarks requested but absent") (encode config);
  Alcotest.check_raises "landmarks under a config without anchors"
    (Invalid_argument "Encoding.encode_node: landmarks given but not requested")
    (encode E.plain_config ~landmark:lm);
  Alcotest.check_raises "anchor count differs"
    (Invalid_argument "Encoding.encode_node: landmark anchor count differs from the config")
    (encode config ~landmark:(Psp_graph.Landmark.select_farthest g ~count:2 ~seed:4))

let test_lookup_entry_roundtrip () =
  let blob = E.encode_lookup_entry ~page:123456 ~offset:789 ~span:3 in
  Alcotest.(check int) "fixed size" E.lookup_entry_bytes (Bytes.length blob);
  Alcotest.(check (triple int int int)) "roundtrip" (123456, 789, 3)
    (E.decode_lookup_entry blob ~pos:0)

let region_ids_roundtrip =
  qtest "region-id delta list roundtrip" QCheck2.Gen.(list_size (int_range 0 50) (int_bound 500))
    (fun ids ->
      let sorted = List.sort_uniq compare ids in
      let arr = Array.of_list sorted in
      let w = Psp_util.Byte_io.Writer.create () in
      E.encode_region_ids w arr;
      let r = Psp_util.Byte_io.Reader.of_bytes (Psp_util.Byte_io.Writer.contents w) in
      E.decode_region_ids r ~count:(Array.length arr) = arr)

(* ------------------------------------------------------------------ *)
(* Precompute: the covering property that makes CI/PI correct *)

let test_precompute_covering () =
  let g, t, b = setup () in
  let pre =
    Psp_index.Precompute.compute g ~assignment:t.K.assignment ~border:b ~want_sets:true
      ~want_subgraphs:true
  in
  let queries = Psp_netgen.Synthetic.random_queries g ~count:60 ~seed:21 in
  Array.iter
    (fun (s, dst) ->
      match Psp_graph.Dijkstra.shortest_path g s dst with
      | None -> ()
      | Some p ->
          let rs = t.K.assignment.(s) and rt = t.K.assignment.(dst) in
          let allowed = Psp_index.Precompute.region_set pre rs rt in
          (* every region the true shortest path crosses is fetchable *)
          Array.iter
            (fun v ->
              let r = t.K.assignment.(v) in
              Alcotest.(check bool)
                (Printf.sprintf "region %d of node %d covered (pair %d,%d)" r v rs rt)
                true
                (r = rs || r = rt || Array.mem r allowed))
            p.Psp_graph.Path.nodes;
          (* PI: the same cost must be achievable inside
             region data of rs,rt plus the passage subgraph *)
          let sub = Psp_index.Precompute.subgraph pre rs rt in
          let edge_ok = Hashtbl.create 64 in
          Array.iter (fun e -> Hashtbl.replace edge_ok e ()) sub;
          (* edges whose source lies in rs or rt are available from F_d *)
          let available e =
            Hashtbl.mem edge_ok e
            ||
            let edge = G.edge g e in
            t.K.assignment.(edge.G.src) = rs || t.K.assignment.(edge.G.src) = rt
          in
          let cost_via_subgraph =
            (* dijkstra over available edges only *)
            let n = G.node_count g in
            let dist = Array.make n infinity in
            let heap = Ref_min_heap.create () in
            dist.(s) <- 0.0;
            Ref_min_heap.push heap ~priority:0.0 s;
            while not (Ref_min_heap.is_empty heap) do
              let d = Ref_min_heap.min_priority heap in
              let u = Ref_min_heap.pop_min heap in
              if d <= dist.(u) then
                G.iter_out g u (fun e ->
                    if available e.G.id then begin
                      let nd = d +. e.G.weight in
                      if nd < dist.(e.G.dst) then begin
                        dist.(e.G.dst) <- nd;
                        Ref_min_heap.push heap ~priority:nd e.G.dst
                      end
                    end)
            done;
            dist.(dst)
          in
          Alcotest.(check bool)
            (Printf.sprintf "PI subgraph preserves optimal cost %f vs %f"
               cost_via_subgraph (Psp_graph.Path.cost p))
            true
            (Float.abs (cost_via_subgraph -. Psp_graph.Path.cost p) < 1e-6))
    queries

let test_precompute_diagonal_exists () =
  let g, t, b = setup () in
  let pre =
    Psp_index.Precompute.compute g ~assignment:t.K.assignment ~border:b ~want_sets:true
      ~want_subgraphs:false
  in
  for r = 0 to t.K.region_count - 1 do
    (* diagonal sets exist (possibly empty) and never contain r itself *)
    let s = Psp_index.Precompute.region_set pre r r in
    Alcotest.(check bool) "no self in S_rr" true (not (Array.mem r s))
  done

let test_precompute_parallel_equals_sequential () =
  let g, t, b = setup () in
  let run domains =
    Psp_index.Precompute.compute ~domains g ~assignment:t.K.assignment ~border:b
      ~want_sets:true ~want_subgraphs:true
  in
  let seq = run 1 and par = run 4 in
  for i = 0 to t.K.region_count - 1 do
    for j = i to t.K.region_count - 1 do
      Alcotest.(check bool) "same region sets" true
        (Psp_index.Precompute.region_set seq i j = Psp_index.Precompute.region_set par i j);
      Alcotest.(check bool) "same subgraphs" true
        (Psp_index.Precompute.subgraph seq i j = Psp_index.Precompute.subgraph par i j)
    done
  done

(* The pre-computation written the direct way: one tree per distinct
   border node, then a separate parent-chain walk to every border node,
   each chain's regions and edges added to every (i, j) pair with the
   source bordering R_i and the destination bordering R_j, then the
   crossing edges entering R_i and R_j.  Quadratic in the border count,
   but nothing is shared between chains, so it is the reference for the
   row-major walk.  Returns (sets, subgraphs) by pair index. *)
let reference_precompute g ~assignment ~border =
  let module Bd = Psp_partition.Border in
  let module D = Psp_graph.Dijkstra in
  let rc = Bd.region_count border in
  let idx = Psp_index.Precompute.pair_index ~region_count:rc in
  let pairs = rc * (rc + 1) / 2 in
  let sets = Array.init pairs (fun _ -> Hashtbl.create 4) in
  let subs = Array.init pairs (fun _ -> Hashtbl.create 4) in
  let borders_of = Array.make (G.node_count g) [] in
  for r = 0 to rc - 1 do
    Array.iter (fun v -> borders_of.(v) <- r :: borders_of.(v)) (Bd.border_nodes border r)
  done;
  let sources = Bd.all_border_nodes border in
  Array.iter
    (fun src ->
      let spt = D.tree g ~source:src in
      Array.iter
        (fun dst ->
          if spt.D.dist.(dst) < infinity then begin
            let regions = ref [ assignment.(dst) ] and edges = ref [] in
            let v = ref dst in
            while spt.D.parent_edge.(!v) >= 0 do
              edges := spt.D.parent_edge.(!v) :: !edges;
              v := spt.D.parent.(!v);
              regions := assignment.(!v) :: !regions
            done;
            List.iter
              (fun i ->
                List.iter
                  (fun j ->
                    let p = idx i j in
                    List.iter (fun r -> if r <> i && r <> j then Hashtbl.replace sets.(p) r ()) !regions;
                    List.iter (fun e -> Hashtbl.replace subs.(p) e ()) !edges)
                  borders_of.(dst))
              borders_of.(src)
          end)
        sources)
    sources;
  for i = 0 to rc - 1 do
    for j = 0 to rc - 1 do
      Array.iter (fun e -> Hashtbl.replace subs.(idx i j) e ()) (Bd.entering_edges border i)
    done
  done;
  let sorted table = Array.of_list (List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) table [])) in
  (Array.map sorted sets, Array.map sorted subs)

(* [Precompute.compute] agrees with the reference on every pair, at one
   and two domains, for each payload alone and both together *)
let matches_reference g ~assignment ~border =
  let rc = Psp_partition.Border.region_count border in
  let ref_sets, ref_subs = reference_precompute g ~assignment ~border in
  List.for_all
    (fun (domains, want_sets, want_subgraphs) ->
      let pre =
        Psp_index.Precompute.compute ~domains g ~assignment ~border ~want_sets ~want_subgraphs
      in
      let ok = ref true in
      for i = 0 to rc - 1 do
        for j = 0 to rc - 1 do
          let p = Psp_index.Precompute.pair_index ~region_count:rc i j in
          if want_sets && Psp_index.Precompute.region_set pre i j <> ref_sets.(p) then ok := false;
          if want_subgraphs && Psp_index.Precompute.subgraph pre i j <> ref_subs.(p) then
            ok := false
        done
      done;
      !ok)
    [ (1, true, true); (2, true, true); (1, true, false); (1, false, true); (2, false, true) ]

let precompute_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:12 ~name:"matches the per-chain reference"
       ~print:(fun (nodes, seed, packed, capacity) ->
         Printf.sprintf "nodes=%d seed=%d %s capacity=%d" nodes seed
           (if packed then "packed" else "plain")
           capacity)
       QCheck2.Gen.(quad (int_range 30 300) (int_bound 10_000) bool (int_range 200 600))
       (fun (nodes, seed, packed, capacity) ->
         let g = network ~nodes ~seed () in
         let node_bytes = E.node_bytes E.plain_config g in
         let t = (if packed then K.build_packed else K.build_plain) g ~node_bytes ~capacity in
         let border =
           Psp_partition.Border.compute g ~assignment:t.K.assignment
             ~region_count:t.K.region_count
         in
         matches_reference g ~assignment:t.K.assignment ~border))

(* Synthetic networks are undirected, so every border node reaches every
   other.  Here a 6x6 grid has one one-way street through its middle.  A
   node [v] has one-way edges out into the grid and none in, so no other
   source reaches it; two dead ends, each a two-node street entered by a
   one-way edge from the grid, cannot reach each other either way.  [v]
   and the dead-end nodes each fill a page, so each is a region of its
   own: those regions lie only on the chains through their one node. *)
let test_precompute_one_way () =
  let b = G.Builder.create () in
  let side = 6 in
  let at x y = (y * side) + x in
  for y = 0 to side - 1 do
    for x = 0 to side - 1 do
      ignore (G.Builder.add_node b ~x:(float_of_int x) ~y:(float_of_int y))
    done
  done;
  for y = 0 to side - 1 do
    for x = 0 to side - 1 do
      (* row 3 runs east only *)
      if x + 1 < side then
        if y = 3 then G.Builder.add_edge b (at x y) (at (x + 1) y) 1.0
        else G.Builder.add_undirected b (at x y) (at (x + 1) y) (1.0 +. (0.1 *. float_of_int y));
      if y + 1 < side then G.Builder.add_undirected b (at x y) (at x (y + 1)) 1.3
    done
  done;
  let v = G.Builder.add_node b ~x:6.5 ~y:2.5 in
  G.Builder.add_edge b v (at (side - 1) 2) 0.5;
  G.Builder.add_edge b v (at 0 0) 9.0;
  let dead_end ~from x0 dx =
    let p = G.Builder.add_node b ~x:x0 ~y:5.5 in
    let q = G.Builder.add_node b ~x:(x0 +. dx) ~y:5.5 in
    G.Builder.add_edge b from p 1.0;
    G.Builder.add_undirected b p q 1.0;
    p
  in
  let p = dead_end ~from:(at 0 (side - 1)) (-1.5) (-1.0) in
  let x = dead_end ~from:(at (side - 1) (side - 1)) 6.5 1.0 in
  let g = G.Builder.freeze b in
  let t = K.build_plain g ~node_bytes:(fun u -> if u >= v then 60 else 10) ~capacity:60 in
  let border =
    Psp_partition.Border.compute g ~assignment:t.K.assignment ~region_count:t.K.region_count
  in
  let sources = Psp_partition.Border.all_border_nodes border in
  let reaches s d = (Psp_graph.Dijkstra.tree g ~source:s).Psp_graph.Dijkstra.dist.(d) < infinity in
  List.iter
    (fun u ->
      Alcotest.(check bool) "border node" true (Array.mem u sources);
      Alcotest.(check int) "region of its own" 1
        (Array.length (K.nodes_of_region t t.K.assignment.(u))))
    [ v; p; x ];
  Alcotest.(check bool) "v is unreachable from another source" true
    (Array.exists (fun s -> s <> v && not (reaches s v)) sources);
  Alcotest.(check bool) "the dead ends are mutually unreachable" true
    ((not (reaches p x)) && not (reaches x p));
  Alcotest.(check bool) "matches the per-chain reference" true
    (matches_reference g ~assignment:t.K.assignment ~border)

let test_pair_index_bijective () =
  let rc = 13 in
  let seen = Hashtbl.create 100 in
  for i = 0 to rc - 1 do
    for j = i to rc - 1 do
      let p = Psp_index.Precompute.pair_index ~region_count:rc i j in
      Alcotest.(check bool) "fresh" false (Hashtbl.mem seen p);
      Hashtbl.replace seen p ();
      Alcotest.(check int) "symmetric" p (Psp_index.Precompute.pair_index ~region_count:rc j i)
    done
  done;
  Alcotest.(check int) "dense" (rc * (rc + 1) / 2) (Hashtbl.length seen)

let test_histogram_sums_to_pairs () =
  let g, t, b = setup () in
  let pre =
    Psp_index.Precompute.compute g ~assignment:t.K.assignment ~border:b ~want_sets:true
      ~want_subgraphs:false
  in
  let h = Psp_index.Precompute.set_cardinality_histogram pre in
  Alcotest.(check int) "histogram total" (Psp_index.Precompute.pair_count pre)
    (Array.fold_left ( + ) 0 h);
  Alcotest.(check int) "max matches histogram length"
    (Psp_index.Precompute.max_set_cardinality pre)
    (Array.length h - 1)

(* ------------------------------------------------------------------ *)
(* Fi_builder *)

let test_fi_builder_decode_superset () =
  let g, _, _ = setup () in
  let builder = FB.create ~graph:g ~page_size:256 ~compress:true ~quantize:0.0 ~m_bound:(Some 30) in
  let rng = Psp_util.Rng.create 5 in
  let sets =
    Array.init 40 (fun _ ->
        Array.init (Psp_util.Rng.int rng 20) (fun _ -> Psp_util.Rng.int rng 60))
  in
  let placements = Array.map (fun s -> FB.add builder ~kind:FB.Region_set s) sets in
  let file = PF.create ~name:"index" ~page_size:256 in
  FB.flush_to builder file;
  Array.iteri
    (fun i (pl : FB.placement) ->
      let pages =
        Array.init pl.FB.span (fun k -> PF.read file (pl.FB.page + k))
      in
      match FB.decode ~quantize:0.0 ~pages ~base_page:0 ~offset:pl.FB.offset with
      | FB.Edges _ -> Alcotest.fail "wrong kind"
      | FB.Regions fetched ->
          let wanted = List.sort_uniq compare (Array.to_list sets.(i)) in
          List.iter
            (fun r -> Alcotest.(check bool) "required region fetched" true (Array.mem r fetched))
            wanted;
          Alcotest.(check bool) "inflation bounded by m" true (Array.length fetched <= 30);
          Alcotest.(check bool) "matches builder" true
            (fetched = FB.fetch_set builder pl))
    placements

let test_fi_builder_subgraph_roundtrip () =
  let g, _, _ = setup () in
  let builder = FB.create ~graph:g ~page_size:256 ~compress:true ~quantize:0.0 ~m_bound:None in
  let rng = Psp_util.Rng.create 6 in
  let sets =
    Array.init 25 (fun _ ->
        Array.init (5 + Psp_util.Rng.int rng 60) (fun _ -> Psp_util.Rng.int rng (G.edge_count g)))
  in
  let placements = Array.map (fun s -> FB.add builder ~kind:FB.Subgraph s) sets in
  let file = PF.create ~name:"index" ~page_size:256 in
  FB.flush_to builder file;
  Array.iteri
    (fun i (pl : FB.placement) ->
      let pages = Array.init pl.FB.span (fun k -> PF.read file (pl.FB.page + k)) in
      match FB.decode ~quantize:0.0 ~pages ~base_page:0 ~offset:pl.FB.offset with
      | FB.Regions _ -> Alcotest.fail "wrong kind"
      | FB.Edges triples ->
          (* every requested edge appears among the decoded triples *)
          Array.iter
            (fun e ->
              let t = E.triple_of_edge g e in
              Alcotest.(check bool) "edge present" true
                (Array.exists
                   (fun (d : E.edge_triple) ->
                     d.E.e_src = t.E.e_src && d.E.e_dst = t.E.e_dst)
                   triples))
            sets.(i))
    placements

(* Only region-set records keep their fetch set (HY's round-4 budget
   reads it); a subgraph record's edge ids are not held for the build. *)
let test_fi_builder_fetch_set_kinds () =
  let g, _, _ = setup () in
  let builder = FB.create ~graph:g ~page_size:256 ~compress:true ~quantize:0.0 ~m_bound:None in
  let set = FB.add builder ~kind:FB.Region_set [| 3; 1; 2 |] in
  let sub = FB.add builder ~kind:FB.Subgraph [| 0; 1; 2 |] in
  Alcotest.(check (array int)) "region set kept" [| 1; 2; 3 |] (FB.fetch_set builder set);
  Alcotest.check_raises "subgraph"
    (Invalid_argument "Fi_builder.fetch_set: subgraph records keep no fetch set") (fun () ->
      ignore (FB.fetch_set builder sub));
  Alcotest.check_raises "unknown" (Invalid_argument "Fi_builder.fetch_set: unknown placement")
    (fun () -> ignore (FB.fetch_set builder { sub with FB.offset = sub.FB.offset + 1 }))

let test_fi_builder_chain_compression () =
  (* heavily overlapping multi-page records must compress via reference
     chains, and every record must decode to a superset of its set *)
  let g, _, _ = setup () in
  let mk compress =
    FB.create ~graph:g ~page_size:256 ~compress ~quantize:0.0 ~m_bound:None
  in
  let rng = Psp_util.Rng.create 9 in
  let base = Array.init 120 (fun _ -> Psp_util.Rng.int rng (G.edge_count g)) in
  let sets =
    Array.init 30 (fun _ ->
        (* ~90% shared elements, a few private ones *)
        Array.append base
          (Array.init 12 (fun _ -> Psp_util.Rng.int rng (G.edge_count g))))
  in
  let with_c = mk true and without_c = mk false in
  let placements = Array.map (fun s -> FB.add with_c ~kind:FB.Subgraph s) sets in
  Array.iter (fun s -> ignore (FB.add without_c ~kind:FB.Subgraph s)) sets;
  Alcotest.(check bool)
    (Printf.sprintf "chained %d pages << plain %d pages" (FB.page_count with_c)
       (FB.page_count without_c))
    true
    (2 * FB.page_count with_c < FB.page_count without_c);
  let file = PF.create ~name:"index" ~page_size:256 in
  FB.flush_to with_c file;
  Array.iteri
    (fun i (pl : FB.placement) ->
      let pages = Array.init pl.FB.span (fun k -> PF.read file (pl.FB.page + k)) in
      match FB.decode ~quantize:0.0 ~pages ~base_page:0 ~offset:pl.FB.offset with
      | FB.Regions _ -> Alcotest.fail "wrong kind"
      | FB.Edges triples ->
          Array.iter
            (fun e ->
              let t = E.triple_of_edge g e in
              Alcotest.(check bool) "edge present" true
                (Array.exists
                   (fun (d : E.edge_triple) -> d.E.e_src = t.E.e_src && d.E.e_dst = t.E.e_dst)
                   triples))
            sets.(i))
    placements

(* The recursive decoder the one-pass walk replaced: a record resolves
   its reference first, then applies its own inclusions (and
   exclusions), with a sort at every link. *)
let recursive_decode ~pages ~offset =
  let module R = Psp_util.Byte_io.Reader in
  let blob = Bytes.concat Bytes.empty (Array.to_list pages) in
  let sort_dedup a = Array.of_list (List.sort_uniq compare (Array.to_list a)) in
  let diff a b = Array.of_list (List.filter (fun x -> not (Array.mem x b)) (Array.to_list a)) in
  let rec parse offset =
    let r = R.of_bytes ~pos:offset blob in
    let kind = R.u8 r in
    let pointer = R.u32 r in
    let count = R.varint r in
    if kind = 0 then begin
      let incl = E.decode_region_ids r ~count in
      let excl = E.decode_region_ids r ~count:(R.varint r) in
      let resolved =
        if pointer = 0xFFFFFFFF then [||]
        else match parse pointer with FB.Regions a -> a | FB.Edges _ -> assert false
      in
      FB.Regions (diff (sort_dedup (Array.append resolved incl)) excl)
    end
    else begin
      let incl = E.decode_edge_triples r ~count in
      let resolved =
        if pointer = 0xFFFFFFFF then [||]
        else match parse pointer with FB.Edges a -> a | FB.Regions _ -> assert false
      in
      FB.Edges (Array.append resolved incl)
    end
  in
  parse offset

let test_fi_builder_one_pass_equals_recursive () =
  let g, t, b = setup () in
  let pre =
    Psp_index.Precompute.compute g ~assignment:t.K.assignment ~border:b ~want_sets:true
      ~want_subgraphs:true
  in
  List.iter
    (fun (kind, m_bound) ->
      let builder = FB.create ~graph:g ~page_size:256 ~compress:true ~quantize:0.0 ~m_bound in
      let placements = ref [] in
      for i = 0 to t.K.region_count - 1 do
        for j = 0 to t.K.region_count - 1 do
          let elements =
            match kind with
            | FB.Region_set -> Psp_index.Precompute.region_set pre i j
            | FB.Subgraph -> Psp_index.Precompute.subgraph pre i j
          in
          placements := FB.add builder ~kind elements :: !placements
        done
      done;
      let file = PF.create ~name:"index" ~page_size:256 in
      FB.flush_to builder file;
      let deepest = ref 0 in
      List.iter
        (fun (pl : FB.placement) ->
          let pages = Array.init pl.FB.span (fun k -> PF.read file (pl.FB.page + k)) in
          let got = FB.decode ~quantize:0.0 ~pages ~base_page:0 ~offset:pl.FB.offset in
          deepest := max !deepest pl.FB.offset;
          if got <> recursive_decode ~pages ~offset:pl.FB.offset then
            Alcotest.failf "record at page %d offset %d decodes differently" pl.FB.page
              pl.FB.offset)
        !placements;
      Alcotest.(check bool) "some record sits past its base page" true (!deepest > 256))
    [ (FB.Region_set, Some 6); (FB.Region_set, None); (FB.Subgraph, None) ]

(* Hand-made region-set records at the given offsets, each pointing at
   the one before it (or at [pointer_of i] when given). *)
let chain_pages ?pointer_of n =
  let module W = Psp_util.Byte_io.Writer in
  let w = W.create () in
  let offsets = Array.make n 0 in
  for i = 0 to n - 1 do
    offsets.(i) <- W.length w;
    W.u8 w 0;
    let pointer =
      match pointer_of with
      | Some f -> f offsets i
      | None -> if i = 0 then 0xFFFFFFFF else offsets.(i - 1)
    in
    W.u32 w pointer;
    W.varint w 1;
    E.encode_region_ids w [| i |];
    W.varint w 0
  done;
  ([| W.contents w |], offsets)

let test_fi_builder_malformed_chains () =
  let decode pages offset = FB.decode ~quantize:0.0 ~pages ~base_page:0 ~offset in
  let rejects what pages offset why =
    match decode pages offset with
    | _ -> Alcotest.failf "%s: decoded" what
    | exception Invalid_argument msg ->
        Alcotest.(check string) what ("Fi_builder.decode: " ^ why) msg
  in
  let backwards = "reference does not point backwards" in
  (* a record that references itself used to recurse until the stack
     overflowed *)
  let pages, offsets = chain_pages ~pointer_of:(fun offsets i -> offsets.(i)) 1 in
  rejects "self reference" pages offsets.(0) backwards;
  (* a two-record cycle: the later record points back, the earlier forward *)
  let pages, offsets = chain_pages ~pointer_of:(fun _ i -> if i = 0 then 8 else 0) 2 in
  rejects "two-record cycle" pages offsets.(1) backwards;
  (* the deepest chain the builder writes decodes; one link more does not *)
  let n = FB.max_chain_depth + 1 in
  let pages, offsets = chain_pages n in
  (match decode pages offsets.(n - 1) with
  | FB.Regions r -> Alcotest.(check int) "every link applied" n (Array.length r)
  | FB.Edges _ -> Alcotest.fail "wrong kind");
  let pages, offsets = chain_pages (n + 1) in
  rejects "chain too deep" pages offsets.(n) "reference chain too deep"

(* Malformed input yields a typed error: random, truncated and
   bit-flipped blobs may raise [Underflow], [Invalid_argument] or
   [Failure], nothing else, and never hang or exhaust memory. *)
let typed_failure f =
  match f () with
  | _ -> true
  | exception (Psp_util.Byte_io.Reader.Underflow | Invalid_argument _ | Failure _) -> true

let mangle_gen valid =
  QCheck2.Gen.(
    let* blob = oneofl valid in
    let n = Bytes.length blob in
    oneof
      [ map (fun cut -> Bytes.sub blob 0 cut) (int_bound n);
        map
          (fun flips ->
            let b = Bytes.copy blob in
            List.iter
              (fun (i, bit) ->
                if n > 0 then
                  let i = i mod n in
                  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit))))
              flips;
            b)
          (list_size (int_range 1 4) (pair nat (int_bound 7)));
        map Bytes.of_string (string_size (int_bound 64)) ])

let region_configs =
  [ E.plain_config;
    { E.plain_config with E.quantize = 0.05 };
    { E.plain_config with E.with_region_ids = true; landmark_anchors = 3 };
    { E.plain_config with E.with_region_ids = true; flag_bits = 12 } ]

(* What a region read yields, as comparable data: every event the
   reference fold reports (a record's id, coordinates, landmark vectors
   and degree, then each of its edges), floats by their bits so NaNs
   from mangled bytes compare, or the failure — [Underflow], or an
   [Invalid_argument] by the check that raised it (the messages name
   different functions).  Any other exception escapes and fails the
   property. *)
type region_event =
  | Node of int * int64 * int64 * int64 list * int64 list * int
  | Edge of int * int64 * int * string

type 'a region_outcome = Read of 'a | Short | Invalid of string

let bits = Int64.bits_of_float

let outcome_of f =
  match f () with
  | events -> Read events
  | exception Psp_util.Byte_io.Reader.Underflow -> Short
  | exception Invalid_argument msg -> (
      match String.index_opt msg ':' with
      | Some k -> Invalid (String.sub msg k (String.length msg - k))
      | None -> Invalid msg)

let reference_events config blob =
  List.rev
    (Ref_region.fold_region config blob
       ~node:(fun acc ~id ~x ~y ~to_anchor ~from_anchor ~degree ->
         Node
           ( id,
             bits x,
             bits y,
             Array.to_list (Array.map bits to_anchor),
             Array.to_list (Array.map bits from_anchor),
             degree )
         :: acc)
       ~edge:(fun acc ~target ~weight ~target_region ~flags ->
         Edge (target, bits weight, target_region, Bytes.to_string flags) :: acc)
       [])

(* The same events read back from a (reused) buffer. *)
let buffer_events config (r : E.region) =
  let a = config.E.landmark_anchors and fb = Psp_util.Bitset.bytes_for config.E.flag_bits in
  let events = ref [] and e = ref 0 in
  for i = 0 to r.E.nodes - 1 do
    let vector v = List.init a (fun k -> bits v.((i * a) + k)) in
    events :=
      Node (r.E.ids.(i), bits r.E.xs.(i), bits r.E.ys.(i), vector r.E.to_anchor,
            vector r.E.from_anchor, r.E.degrees.(i))
      :: !events;
    for j = !e to !e + r.E.degrees.(i) - 1 do
      events :=
        Edge
          ( r.E.targets.(j),
            bits r.E.weights.(j),
            (if config.E.with_region_ids then r.E.target_regions.(j) else -1),
            Bytes.sub_string r.E.flags (j * fb) fb )
        :: !events
    done;
    e := !e + r.E.degrees.(i)
  done;
  if !e <> r.E.edges then Alcotest.failf "buffer: %d edges by degree, %d recorded" !e r.E.edges;
  List.rev !events

(* Records by their bits, likewise. *)
let record_key (r : E.node_record) =
  ( r.E.id,
    bits r.E.x,
    bits r.E.y,
    List.map
      (fun (a : E.adj) ->
        (a.E.target, bits a.E.weight, a.E.target_region, Option.map Psp_util.Bitset.to_bytes a.E.flags))
      r.E.adj,
    Option.map (fun (t, f) -> (Array.map bits t, Array.map bits f)) r.E.landmark )

(* Malformed region blobs, and intact ones (a cut at the full length),
   under all four configs: the reader and the record decoder yield
   exactly what the reference fold does, or fail where it fails, with
   [Underflow] or [Invalid_argument] only.  Each config reads the blobs
   encoded under it, and the three without anchors also read the
   LM-config blobs, whose landmark vectors they do not declare, so every
   later field is misaligned.  One buffer serves every case, so stale
   contents from a larger read must never show. *)
let region_fold_fuzz =
  let g, t, _ = setup () in
  let lm = Psp_graph.Landmark.select_farthest g ~count:3 ~seed:4 in
  let flags e = Psp_util.Bitset.of_list 12 [ e mod 12 ] in
  let encode config =
    let landmark = if config.E.landmark_anchors > 0 then Some lm else None in
    List.map
      (fun r -> E.encode_region config g ~region_of:t.K.assignment ?landmark ~flags (K.nodes_of_region t r))
      (List.init (min 4 t.K.region_count) Fun.id)
  in
  let lm_blobs = encode (List.find (fun c -> c.E.landmark_anchors > 0) region_configs) in
  let cases =
    List.map
      (fun config ->
        (config, encode config @ if config.E.landmark_anchors > 0 then [] else lm_blobs))
      region_configs
  in
  let buffer = E.region_buffer () in
  qtest ~count:400 "region fold: malformed blobs fail typed"
    QCheck2.Gen.(
      let* config, blobs = oneofl cases in
      let* blob = mangle_gen blobs in
      return (config, blob))
    (fun (config, blob) ->
      let want = outcome_of (fun () -> reference_events config blob) in
      let records f = outcome_of (fun () -> f config blob |> List.map record_key) in
      outcome_of (fun () ->
          E.read_region config buffer blob;
          buffer_events config buffer)
      = want
      && (buffer.E.nodes = 0 || match want with Read _ -> true | _ -> false)
      && records E.decode_region = records Ref_region.decode_region)

(* The reader allocates nothing per record or edge: reading a whole
   network's blob allocates what reading one record's does, once the
   buffer has grown to fit both. *)
let test_reader_allocation () =
  let g, t, _ = setup () in
  let lm = Psp_graph.Landmark.select_farthest g ~count:3 ~seed:4 in
  let flags e = Psp_util.Bitset.of_list 12 [ e mod 12 ] in
  List.iter
    (fun config ->
      let landmark = if config.E.landmark_anchors > 0 then Some lm else None in
      let encode nodes = E.encode_region config g ~region_of:t.K.assignment ?landmark ~flags nodes in
      let small = encode [| 0 |] and large = encode (Array.init (G.node_count g) Fun.id) in
      let r = E.region_buffer () in
      E.read_region config r large;
      let words blob =
        let before = Gc.minor_words () in
        E.read_region config r blob;
        Gc.minor_words () -. before
      in
      let small_words = words small and large_words = words large in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "words for %d records = words for 1 (quantize %g, anchors %d, flags %d)"
           r.E.nodes config.E.quantize config.E.landmark_anchors config.E.flag_bits)
        small_words large_words)
    region_configs

(* Look-up entries are read at secret offsets from fetched pages: any
   blob and position yields the fixed-width fields or a typed error,
   and an entry that fits decodes to the bytes it occupies. *)
let lookup_entry_fuzz =
  qtest ~count:1000 "lookup entry decode: any blob and position is typed"
    QCheck2.Gen.(
      let* blob = map Bytes.of_string (string_size (int_bound 40)) in
      let* pos = int_range (-12) (Bytes.length blob + 12) in
      return (blob, pos))
    (fun (blob, pos) ->
      match E.decode_lookup_entry blob ~pos with
      | page, offset, span ->
          pos >= 0
          && pos + E.lookup_entry_bytes <= Bytes.length blob
          && Bytes.equal
               (E.encode_lookup_entry ~page ~offset ~span)
               (Bytes.sub blob pos E.lookup_entry_bytes)
      | exception Psp_util.Byte_io.Reader.Underflow ->
          pos + E.lookup_entry_bytes > Bytes.length blob
      | exception Invalid_argument _ -> pos < 0)

let fi_decode_fuzz =
  let g, t, b = setup () in
  let pre =
    Psp_index.Precompute.compute g ~assignment:t.K.assignment ~border:b ~want_sets:true
      ~want_subgraphs:true
  in
  let windows =
    List.concat_map
      (fun kind ->
        let builder = FB.create ~graph:g ~page_size:256 ~compress:true ~quantize:0.0 ~m_bound:None in
        let placements =
          List.init 24 (fun k ->
              let i = k mod t.K.region_count and j = k / 2 mod t.K.region_count in
              FB.add builder ~kind
                (match kind with
                | FB.Region_set -> Psp_index.Precompute.region_set pre i j
                | FB.Subgraph -> Psp_index.Precompute.subgraph pre i j))
        in
        let file = PF.create ~name:"index" ~page_size:256 in
        FB.flush_to builder file;
        List.map
          (fun (pl : FB.placement) ->
            ( Bytes.concat Bytes.empty
                (List.init pl.FB.span (fun k -> PF.read file (pl.FB.page + k))),
              pl.FB.offset ))
          placements)
      [ FB.Region_set; FB.Subgraph ]
  in
  qtest ~count:400 "fi decode: malformed windows fail typed"
    QCheck2.Gen.(
      let* blob = mangle_gen (List.map fst windows) in
      let* offset = oneof [ oneofl (List.map snd windows); int_bound 600 ] in
      return (blob, offset))
    (fun (blob, offset) ->
      typed_failure (fun () -> FB.decode ~quantize:0.0 ~pages:[| blob |] ~base_page:0 ~offset))

let test_fi_builder_span_budget () =
  (* chains must never blow a record's span past 1.5x (+1) of its plain
     span — that bound is what keeps the query plan tight *)
  let g, _, _ = setup () in
  let builder = FB.create ~graph:g ~page_size:256 ~compress:true ~quantize:0.0 ~m_bound:None in
  let rng = Psp_util.Rng.create 10 in
  for _ = 1 to 60 do
    let set = Array.init (20 + Psp_util.Rng.int rng 100) (fun _ -> Psp_util.Rng.int rng (G.edge_count g)) in
    let plain_bytes = 8 + (10 * Array.length set) in
    let plain_span = max 1 ((plain_bytes + 255) / 256) in
    let pl = FB.add builder ~kind:FB.Subgraph set in
    Alcotest.(check bool)
      (Printf.sprintf "span %d within budget of plain %d" pl.FB.span plain_span)
      true
      (pl.FB.span <= plain_span + max 1 (plain_span / 2) + 1)
  done

let test_fi_builder_compression_shrinks () =
  let g, t, b = setup () in
  let pre =
    Psp_index.Precompute.compute g ~assignment:t.K.assignment ~border:b ~want_sets:true
      ~want_subgraphs:false
  in
  let build compress =
    let builder =
      FB.create ~graph:g ~page_size:256 ~compress ~quantize:0.0
        ~m_bound:(Some (Psp_index.Precompute.max_set_cardinality pre))
    in
    for i = 0 to t.K.region_count - 1 do
      for j = i to t.K.region_count - 1 do
        ignore (FB.add builder ~kind:FB.Region_set (Psp_index.Precompute.region_set pre i j))
      done
    done;
    FB.page_count builder
  in
  let compressed = build true and plain = build false in
  Alcotest.(check bool)
    (Printf.sprintf "compressed %d <= plain %d pages" compressed plain)
    true (compressed <= plain)

(* §5.3 on the placements the builder really makes: a plain record
   that fits in a page has span 1 and ends inside its page; a larger one
   starts a fresh page exactly when that lowers its span; records follow
   one another with no gap but a closed page's tail; and every placement
   decodes back to its record. *)
let fi_builder_no_straddle =
  let g = network ~nodes:20 () in
  qtest ~count:200 "no-straddle placements stay in order"
    QCheck2.Gen.(
      pair (int_range 16 96) (list_size (int_range 1 40) (pair (int_bound 60) (int_range 1 300))))
    (fun (page_size, records) ->
      let builder = FB.create ~graph:g ~page_size ~compress:false ~quantize:0.0 ~m_bound:None in
      let sets = List.map (fun (n, stride) -> Array.init n (fun i -> i * stride)) records in
      let placements = List.map (FB.add builder ~kind:FB.Region_set) sets in
      let file = PF.create ~name:"index" ~page_size in
      FB.flush_to builder file;
      (* a plain region set: u8 kind, u32 pointer, varint count, the
         ids, varint 0 exclusions *)
      let record_bytes ids =
        let w = Psp_util.Byte_io.Writer.create () in
        E.encode_region_ids w ids;
        6 + Psp_util.Byte_io.varint_size (Array.length ids) + Psp_util.Byte_io.Writer.length w
      in
      let ceil_div a b = (a + b - 1) / b in
      let decodes ids (pl : FB.placement) =
        let pages = Array.init pl.FB.span (fun k -> PF.read file (pl.FB.page + k)) in
        match FB.decode ~quantize:0.0 ~pages ~base_page:0 ~offset:pl.FB.offset with
        | FB.Regions r -> r = ids
        | FB.Edges _ -> false
        | exception _ -> false
      in
      (* [stop] is the byte position just past the previous record *)
      let rec check stop = function
        | [] -> true
        | (ids, (pl : FB.placement)) :: rest ->
            let len = record_bytes ids in
            let fill = stop mod page_size in
            let fresh =
              fill > 0
              &&
              if len <= page_size then fill + len > page_size
              else ceil_div (fill + len) page_size > ceil_div len page_size
            in
            let start = if fresh then stop - fill + page_size else stop in
            let placed =
              if len <= page_size then pl.FB.span = 1 && pl.FB.offset + len <= page_size
              else pl.FB.span = ceil_div (pl.FB.offset + len) page_size
            in
            (pl.FB.page * page_size) + pl.FB.offset = start
            && placed && decodes ids pl
            && check (start + len) rest
      in
      check 0 (List.combine sets placements))

(* ------------------------------------------------------------------ *)
(* Query plans and headers *)

let plans =
  [ QP.Ci { fi_span = 2; m = 17 };
    QP.Pi { fi_span = 5 };
    QP.Hy { r = 1; round4 = 9 };
    QP.Pi_star { fi_span = 4; cluster = 3 };
    QP.Lm { total_data_pages = 21 };
    QP.Af { pages_per_region = 2; max_regions = 9 } ]

let test_plan_roundtrip () =
  List.iter
    (fun p ->
      let p' = QP.decode (QP.encode p) in
      Alcotest.(check string) "roundtrip"
        (Format.asprintf "%a" QP.pp p)
        (Format.asprintf "%a" QP.pp p'))
    plans

let test_plan_budgets () =
  Alcotest.(check int) "CI fetches" (1 + 2 + 19)
    (QP.total_pir_fetches (QP.Ci { fi_span = 2; m = 17 }));
  Alcotest.(check int) "PI fetches" (1 + 5 + 2) (QP.total_pir_fetches (QP.Pi { fi_span = 5 }));
  Alcotest.(check int) "CI rounds" 4 (QP.rounds (QP.Ci { fi_span = 2; m = 17 }));
  Alcotest.(check int) "PI rounds" 3 (QP.rounds (QP.Pi { fi_span = 5 }));
  Alcotest.(check int) "LM rounds" 21 (QP.rounds (QP.Lm { total_data_pages = 21 }))

let test_header_roundtrip () =
  let g, t, _ = setup () in
  let header =
    { Psp_index.Header.scheme = "CI";
      tree = t.K.tree;
      region_count = t.K.region_count;
      region_first_page = Array.init t.K.region_count (fun r -> r);
      pages_per_region = 1;
      plan = QP.Ci { fi_span = 1; m = 9 };
      config = E.plain_config;
      heuristic_scale = 1.0;
      index_pages = 7;
      lookup_pages = 2;
      data_pages = t.K.region_count;
      data_offset = 0 }
  in
  let file = Psp_index.Header.to_page_file header ~page_size:256 in
  let pages = Array.init (PF.page_count file) (PF.read file) in
  let header' = Psp_index.Header.of_pages pages in
  Alcotest.(check string) "scheme" "CI" header'.Psp_index.Header.scheme;
  Alcotest.(check int) "regions" t.K.region_count header'.Psp_index.Header.region_count;
  Alcotest.(check int) "index pages" 7 header'.Psp_index.Header.index_pages;
  (* locate works through the decoded tree *)
  for v = 0 to 20 do
    Alcotest.(check int) "locate" t.K.assignment.(v)
      (Psp_index.Header.locate header' ~x:(G.x g v) ~y:(G.y g v))
  done

(* Header pages as a host might serve them: random, truncated or
   bit-flipped.  Decoding either fails typed, before any oblivious round
   could start, or yields a tree whose every leaf names one of the
   header's regions. *)
let header_fuzz =
  let g = network () in
  let headers =
    [ (DB.build_ci ~page_size:512 g).DB.header;
      (DB.build_pi_star ~cluster:2 ~page_size:512 g).DB.header;
      (fst (DB.build_af ~target_regions:12 ~page_size:512 g)).DB.header ]
  in
  let blobs =
    List.map
      (fun h ->
        let file = Psp_index.Header.to_page_file h ~page_size:128 in
        Bytes.concat Bytes.empty (List.init (PF.page_count file) (PF.read file)))
      headers
  in
  let rec leaves_within count = function
    | K.Leaf { region } -> region >= 0 && region < count
    | K.Split { less; geq; _ } -> leaves_within count less && leaves_within count geq
  in
  qtest ~count:1000 "malformed header pages fail typed"
    (mangle_gen blobs)
    (fun blob ->
      match Psp_index.Header.of_pages [| blob |] with
      | h -> leaves_within h.Psp_index.Header.region_count h.Psp_index.Header.tree
      | exception (Psp_util.Byte_io.Reader.Underflow | Invalid_argument _ | Failure _) -> true)

(* ------------------------------------------------------------------ *)
(* Database builders: structural invariants *)

let test_ci_database_structure () =
  let g = network () in
  let db = DB.build_ci ~page_size:512 g in
  Alcotest.(check string) "scheme" "CI" db.DB.scheme;
  Alcotest.(check int) "one page per region"
    db.DB.header.Psp_index.Header.region_count
    (PF.page_count db.DB.data);
  Alcotest.(check bool) "lookup exists" true (db.DB.lookup <> None);
  Alcotest.(check bool) "index exists" true (db.DB.index <> None);
  Alcotest.(check int) "4 files" 4 (List.length (DB.files db));
  (match db.DB.header.Psp_index.Header.plan with
  | QP.Ci { m; fi_span } ->
      Alcotest.(check bool) "m positive" true (m > 0);
      Alcotest.(check bool) "span positive" true (fi_span >= 1)
  | _ -> Alcotest.fail "wrong plan");
  Alcotest.(check bool) "total bytes accounted" true
    (DB.total_bytes db = List.fold_left (fun a f -> a + PF.size_bytes f) 0 (DB.files db))

let test_pi_database_bigger_than_ci () =
  let g = network () in
  let ci = DB.build_ci ~page_size:512 g in
  let pi = DB.build_pi ~page_size:512 g in
  Alcotest.(check bool)
    (Printf.sprintf "PI %d > CI %d bytes" (DB.total_bytes pi) (DB.total_bytes ci))
    true
    (DB.total_bytes pi > DB.total_bytes ci)

let test_compression_reduces_index () =
  let g = network ~nodes:600 () in
  let on = DB.build_pi ~compress:true ~page_size:512 g in
  let off = DB.build_pi ~compress:false ~page_size:512 g in
  let index_pages db = PF.page_count (Option.get db.DB.index) in
  Alcotest.(check bool)
    (Printf.sprintf "compressed %d <= plain %d" (index_pages on) (index_pages off))
    true
    (index_pages on <= index_pages off)

let test_packed_reduces_database () =
  let g = network ~nodes:600 () in
  let packed = DB.build_ci ~packed:true ~page_size:512 g in
  let plain = DB.build_ci ~packed:false ~page_size:512 g in
  Alcotest.(check bool) "fewer data pages" true
    (PF.page_count packed.DB.data <= PF.page_count plain.DB.data)

let test_hy_combined_file () =
  let g = network () in
  let db = DB.build_hy ~threshold:6 ~page_size:512 g in
  Alcotest.(check bool) "no separate index" true (db.DB.index = None);
  Alcotest.(check string) "combined name" "combined" (PF.name db.DB.data);
  Alcotest.(check bool) "data offset set" true (db.DB.header.Psp_index.Header.data_offset > 0);
  Alcotest.(check bool) "some replacement happened" true (db.DB.stats.DB.replaced_pairs > 0)

let test_hy_threshold_tradeoff () =
  let g = network ~nodes:600 () in
  let tight = DB.build_hy ~threshold:4 ~page_size:512 g in
  let loose = DB.build_hy ~threshold:1000 ~page_size:512 g in
  Alcotest.(check bool) "no replacement at huge threshold" true
    (loose.DB.stats.DB.replaced_pairs = 0);
  Alcotest.(check bool) "lower threshold -> more space" true
    (DB.total_bytes tight >= DB.total_bytes loose)

let test_pi_star_cluster () =
  let g = network () in
  let db = DB.build_pi_star ~cluster:3 ~page_size:512 g in
  Alcotest.(check int) "pages per region" 3 db.DB.header.Psp_index.Header.pages_per_region;
  Alcotest.(check int) "data pages = 3x regions"
    (3 * db.DB.header.Psp_index.Header.region_count)
    (PF.page_count db.DB.data)

let test_pi_star_shrinks_index () =
  let g = network ~nodes:600 () in
  let pi = DB.build_pi ~page_size:512 g in
  let star = DB.build_pi_star ~cluster:4 ~page_size:512 g in
  let index_pages db = PF.page_count (Option.get db.DB.index) in
  Alcotest.(check bool)
    (Printf.sprintf "PI* index %d < PI index %d" (index_pages star) (index_pages pi))
    true
    (index_pages star < index_pages pi)

let test_lm_af_structure () =
  let g = network () in
  let lm, landmark = DB.build_lm ~anchors:4 ~seed:2 ~page_size:512 g in
  Alcotest.(check int) "anchors" 4 (Psp_graph.Landmark.anchor_count landmark);
  Alcotest.(check int) "lm config anchors" 4
    lm.DB.header.Psp_index.Header.config.E.landmark_anchors;
  Alcotest.(check bool) "lm no lookup/index" true (lm.DB.lookup = None && lm.DB.index = None);
  let af, flags = DB.build_af ~target_regions:12 ~page_size:512 g in
  Alcotest.(check int) "af flag bits = regions"
    af.DB.header.Psp_index.Header.region_count
    af.DB.header.Psp_index.Header.config.E.flag_bits;
  Alcotest.(check int) "arcflag regions" af.DB.header.Psp_index.Header.region_count
    (Psp_graph.Arcflag.region_count flags)

let test_with_plan () =
  let g = network () in
  let db, _ = DB.build_lm ~anchors:3 ~seed:2 ~page_size:512 g in
  let db' = DB.with_plan db (QP.Lm { total_data_pages = 5 }) in
  match db'.DB.header.Psp_index.Header.plan with
  | QP.Lm { total_data_pages } -> Alcotest.(check int) "plan replaced" 5 total_data_pages
  | _ -> Alcotest.fail "wrong plan"

let () =
  Alcotest.run "index"
    [ ( "encoding",
        [ Alcotest.test_case "region roundtrip" `Quick test_region_encoding_roundtrip;
          Alcotest.test_case "node size prediction" `Quick test_node_bytes_matches_encoding;
          Alcotest.test_case "landmark+flags payloads" `Quick test_landmark_flag_encoding;
          Alcotest.test_case "lookup entries" `Quick test_lookup_entry_roundtrip;
          region_ids_roundtrip;
          region_fold_fuzz;
          Alcotest.test_case "reader allocates per region only" `Quick test_reader_allocation;
          lookup_entry_fuzz ] );
      ( "precompute",
        [ Alcotest.test_case "covering property" `Slow test_precompute_covering;
          Alcotest.test_case "diagonal" `Quick test_precompute_diagonal_exists;
          Alcotest.test_case "parallel = sequential" `Quick test_precompute_parallel_equals_sequential;
          precompute_matches_reference;
          Alcotest.test_case "one-way streets" `Quick test_precompute_one_way;
          Alcotest.test_case "pair index" `Quick test_pair_index_bijective;
          Alcotest.test_case "histogram" `Quick test_histogram_sums_to_pairs ] );
      ( "fi_builder",
        [ Alcotest.test_case "decode superset" `Quick test_fi_builder_decode_superset;
          Alcotest.test_case "subgraph roundtrip" `Quick test_fi_builder_subgraph_roundtrip;
          Alcotest.test_case "chain compression" `Quick test_fi_builder_chain_compression;
          Alcotest.test_case "span budget" `Quick test_fi_builder_span_budget;
          Alcotest.test_case "compression shrinks" `Quick test_fi_builder_compression_shrinks;
          Alcotest.test_case "one pass = recursive decode" `Quick
            test_fi_builder_one_pass_equals_recursive;
          Alcotest.test_case "malformed chains rejected" `Quick test_fi_builder_malformed_chains;
          fi_decode_fuzz;
          fi_builder_no_straddle;
          Alcotest.test_case "fetch sets by kind" `Quick test_fi_builder_fetch_set_kinds ] );
      ( "plans",
        [ Alcotest.test_case "roundtrip" `Quick test_plan_roundtrip;
          Alcotest.test_case "budgets" `Quick test_plan_budgets ] );
      ( "header", [ Alcotest.test_case "roundtrip" `Quick test_header_roundtrip; header_fuzz ] );
      ( "database",
        [ Alcotest.test_case "CI structure" `Quick test_ci_database_structure;
          Alcotest.test_case "PI bigger than CI" `Quick test_pi_database_bigger_than_ci;
          Alcotest.test_case "compression reduces" `Slow test_compression_reduces_index;
          Alcotest.test_case "packing reduces" `Slow test_packed_reduces_database;
          Alcotest.test_case "HY combined file" `Quick test_hy_combined_file;
          Alcotest.test_case "HY threshold" `Slow test_hy_threshold_tradeoff;
          Alcotest.test_case "PI* cluster" `Quick test_pi_star_cluster;
          Alcotest.test_case "PI* shrinks index" `Slow test_pi_star_shrinks_index;
          Alcotest.test_case "LM/AF structure" `Quick test_lm_af_structure;
          Alcotest.test_case "with_plan" `Quick test_with_plan ] ) ]
