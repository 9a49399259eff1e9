(* Partitioning: KD-tree construction invariants, packed-vs-plain
   utilization (the §5.6 claim), locate/assignment consistency, header
   serialization, border-node coverage. *)

module G = Psp_graph.Graph
module K = Psp_partition.Kdtree
module B = Psp_partition.Border

let qtest ?(count = 25) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let network ?(nodes = 400) ?(seed = 3) () =
  Psp_netgen.Synthetic.generate
    { Psp_netgen.Synthetic.nodes;
      edges = nodes + (nodes / 8);
      width = 1000.0;
      height = 1000.0;
      seed }

let node_bytes g = Psp_index.Encoding.node_bytes Psp_index.Encoding.plain_config g

let test_every_node_assigned () =
  let g = network () in
  let t = K.build_packed g ~node_bytes:(node_bytes g) ~capacity:500 in
  Alcotest.(check bool) "several regions" true (t.K.region_count > 1);
  Array.iteri
    (fun v r ->
      Alcotest.(check bool) (Printf.sprintf "node %d assigned" v) true
        (r >= 0 && r < t.K.region_count))
    t.K.assignment;
  let total = Array.fold_left (fun acc ns -> acc + Array.length ns) 0 t.K.region_nodes in
  Alcotest.(check int) "regions partition the nodes" (G.node_count g) total

let test_capacity_respected () =
  let g = network () in
  List.iter
    (fun build ->
      let t = build g ~node_bytes:(node_bytes g) ~capacity:500 in
      for r = 0 to t.K.region_count - 1 do
        Alcotest.(check bool) "region payload fits" true
          (K.region_bytes t ~node_bytes:(node_bytes g) r <= 500)
      done)
    [ K.build_packed; K.build_plain ]

let test_packed_utilization_over_90 () =
  let g = network ~nodes:1500 () in
  let t = K.build_packed g ~node_bytes:(node_bytes g) ~capacity:500 in
  let u = K.utilization t ~node_bytes:(node_bytes g) ~capacity:500 in
  Alcotest.(check bool) (Printf.sprintf "packed utilization %.1f%% > 90%%" (100. *. u)) true
    (u > 0.90)

let test_packed_beats_plain () =
  let g = network ~nodes:1500 () in
  let packed = K.build_packed g ~node_bytes:(node_bytes g) ~capacity:500 in
  let plain = K.build_plain g ~node_bytes:(node_bytes g) ~capacity:500 in
  let u t = K.utilization t ~node_bytes:(node_bytes g) ~capacity:500 in
  Alcotest.(check bool)
    (Printf.sprintf "packed %.1f%% >= plain %.1f%%" (100. *. u packed) (100. *. u plain))
    true
    (u packed >= u plain);
  Alcotest.(check bool) "packed needs fewer regions" true
    (packed.K.region_count <= plain.K.region_count)

let test_locate_matches_assignment () =
  let g = network () in
  List.iter
    (fun build ->
      let t = build g ~node_bytes:(node_bytes g) ~capacity:400 in
      for v = 0 to G.node_count g - 1 do
        Alcotest.(check int) "locate = assignment" t.K.assignment.(v)
          (K.locate t ~x:(G.x g v) ~y:(G.y g v))
      done)
    [ K.build_packed; K.build_plain ]

let locate_assignment_property =
  qtest "locate agrees with assignment on random networks"
    QCheck2.Gen.(pair (int_range 50 400) (int_range 0 1000))
    (fun (nodes, seed) ->
      let g = network ~nodes ~seed () in
      let t = K.build_packed g ~node_bytes:(node_bytes g) ~capacity:300 in
      let ok = ref true in
      for v = 0 to G.node_count g - 1 do
        if K.locate t ~x:(G.x g v) ~y:(G.y g v) <> t.K.assignment.(v) then ok := false
      done;
      !ok)

let test_single_region_when_capacity_huge () =
  let g = network ~nodes:50 () in
  let t = K.build_packed g ~node_bytes:(node_bytes g) ~capacity:1_000_000 in
  Alcotest.(check int) "one region" 1 t.K.region_count

let test_oversized_node_rejected () =
  let g = network ~nodes:50 () in
  match K.build_packed g ~node_bytes:(fun _ -> 1000) ~capacity:100 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let tree_blob t =
  let w = Psp_util.Byte_io.Writer.create () in
  K.write_tree w t.K.tree;
  Psp_util.Byte_io.Writer.contents w

let test_serialize_roundtrip () =
  let g = network () in
  let t = K.build_packed g ~node_bytes:(node_bytes g) ~capacity:400 in
  let r = Psp_util.Byte_io.Reader.of_bytes (tree_blob t) in
  let tree = K.read_tree r ~region_count:t.K.region_count in
  Alcotest.(check int) "whole blob read" 0 (Psp_util.Byte_io.Reader.remaining r);
  for v = 0 to G.node_count g - 1 do
    Alcotest.(check int) "client-side locate" t.K.assignment.(v)
      (K.locate_tree tree ~x:(G.x g v) ~y:(G.y g v))
  done;
  (* the highest region id is a leaf, so one region fewer rejects it *)
  match
    K.read_tree (Psp_util.Byte_io.Reader.of_bytes (tree_blob t))
      ~region_count:(t.K.region_count - 1)
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "leaf outside the region count accepted"

let test_header_is_concise () =
  (* the partitioning info shipped to clients stays small: one split
     coordinate per internal node *)
  let g = network ~nodes:2000 () in
  let t = K.build_packed g ~node_bytes:(node_bytes g) ~capacity:500 in
  let blob = tree_blob t in
  Alcotest.(check bool)
    (Printf.sprintf "%d bytes for %d regions" (Bytes.length blob) t.K.region_count)
    true
    (Bytes.length blob < 16 * (2 * t.K.region_count))

(* ------------------------------------------------------------------ *)
(* Border nodes *)

let setup_borders () =
  let g = network () in
  let t = K.build_packed g ~node_bytes:(node_bytes g) ~capacity:400 in
  let b = B.compute g ~assignment:t.K.assignment ~region_count:t.K.region_count in
  (g, t, b)

let test_border_definition () =
  let g, t, b = setup_borders () in
  let rev, _ = G.reverse g in
  (* every border node of r is an outside endpoint of a crossing edge *)
  for r = 0 to t.K.region_count - 1 do
    Array.iter
      (fun v ->
        Alcotest.(check bool) "border node is outside r" true (t.K.assignment.(v) <> r);
        let touches = ref false in
        G.iter_out g v (fun e -> if t.K.assignment.(e.G.dst) = r then touches := true);
        G.iter_out rev v (fun e -> if t.K.assignment.(e.G.dst) = r then touches := true);
        Alcotest.(check bool) "adjacent to r" true !touches)
      (B.border_nodes b r)
  done

let test_border_covers_crossings () =
  let g, t, b = setup_borders () in
  (* for every crossing edge, dst is border of src's region and vice versa *)
  G.iter_edges g (fun e ->
      let ru = t.K.assignment.(e.G.src) and rv = t.K.assignment.(e.G.dst) in
      if ru <> rv then begin
        Alcotest.(check bool) "dst in border(ru)" true
          (Array.mem e.G.dst (B.border_nodes b ru));
        Alcotest.(check bool) "src in border(rv)" true
          (Array.mem e.G.src (B.border_nodes b rv))
      end)

let test_entering_edges () =
  let g, t, b = setup_borders () in
  for r = 0 to t.K.region_count - 1 do
    Array.iter
      (fun id ->
        let e = G.edge g id in
        Alcotest.(check bool) "enters r" true
          (t.K.assignment.(e.G.src) <> r && t.K.assignment.(e.G.dst) = r))
      (B.entering_edges b r)
  done

let crossings_property =
  qtest "crossing edges reach border and entering sets on random networks"
    QCheck2.Gen.(pair (int_range 50 400) (int_range 0 1000))
    (fun (nodes, seed) ->
      let g = network ~nodes ~seed () in
      let t = K.build_packed g ~node_bytes:(node_bytes g) ~capacity:300 in
      let b = B.compute g ~assignment:t.K.assignment ~region_count:t.K.region_count in
      let ok = ref true in
      G.iter_edges g (fun e ->
          let ru = t.K.assignment.(e.G.src) and rv = t.K.assignment.(e.G.dst) in
          if ru <> rv then
            if
              not
                (Array.mem e.G.dst (B.border_nodes b ru)
                && Array.mem e.G.src (B.border_nodes b rv)
                && Array.mem e.G.id (B.entering_edges b rv))
            then ok := false);
      !ok)

let test_all_border_nodes_union () =
  let _, t, b = setup_borders () in
  let union = B.all_border_nodes b in
  Alcotest.(check bool) "sorted distinct" true
    (Array.to_list union = List.sort_uniq compare (Array.to_list union));
  for r = 0 to t.K.region_count - 1 do
    Array.iter
      (fun v -> Alcotest.(check bool) "member of union" true (Array.mem v union))
      (B.border_nodes b r)
  done

(* Alcotest cuts long test names to the width the widest group label
   leaves, so a group label's length is part of every printed name. *)
let () =
  Alcotest.run "partition"
    [ ( "kdtree",
        [ Alcotest.test_case "every node assigned" `Quick test_every_node_assigned;
          Alcotest.test_case "capacity respected" `Quick test_capacity_respected;
          Alcotest.test_case "packed utilization" `Quick test_packed_utilization_over_90;
          Alcotest.test_case "packed beats plain" `Quick test_packed_beats_plain;
          Alcotest.test_case "locate = assignment" `Quick test_locate_matches_assignment;
          locate_assignment_property;
          Alcotest.test_case "single region" `Quick test_single_region_when_capacity_huge;
          Alcotest.test_case "oversized node" `Quick test_oversized_node_rejected;
          Alcotest.test_case "serialize roundtrip" `Quick test_serialize_roundtrip;
          Alcotest.test_case "header concise" `Quick test_header_is_concise ] );
      ( "border",
        [ Alcotest.test_case "definition" `Quick test_border_definition;
          Alcotest.test_case "covers crossings" `Quick test_border_covers_crossings;
          Alcotest.test_case "entering edges" `Quick test_entering_edges;
          Alcotest.test_case "union" `Quick test_all_border_nodes_union ] );
      ("crossings", [ crossings_property ]) ]
