(* Graph engine: CSR structure, Dijkstra against a Bellman–Ford oracle
   and the tie-order reference, landmark admissibility, and arc-flags
   against Dijkstra and the flag-for-flag reference. *)

module G = Psp_graph.Graph

let qtest ?(count = 60) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* small connected test graph:
       0 --1.0-- 1 --1.0-- 2
       |                   |
      5.0                 1.0
       |                   |
       3 ------1.0-------- 4
   plus a directed shortcut 0 -> 4 with weight 3.5 *)
let diamond () =
  let b = G.Builder.create () in
  let coords = [ (0.0, 0.0); (1.0, 0.0); (2.0, 0.0); (0.0, -1.0); (2.0, -1.0) ] in
  List.iter (fun (x, y) -> ignore (G.Builder.add_node b ~x ~y)) coords;
  G.Builder.add_undirected b 0 1 1.0;
  G.Builder.add_undirected b 1 2 1.0;
  G.Builder.add_undirected b 0 3 5.0;
  G.Builder.add_undirected b 2 4 1.0;
  G.Builder.add_undirected b 3 4 1.0;
  G.Builder.add_edge b 0 4 3.5;
  G.Builder.freeze b

(* random connected graph generator for property tests: a random tree
   plus extra random edges, generic weights *)
let random_graph_gen =
  QCheck2.Gen.(
    let* n = int_range 2 40 in
    let* extra = int_range 0 60 in
    let* seed = int_range 0 10_000 in
    return (n, extra, seed))

let build_random (n, extra, seed) =
  let rng = Psp_util.Rng.create seed in
  let b = G.Builder.create () in
  for _ = 1 to n do
    ignore
      (G.Builder.add_node b ~x:(Psp_util.Rng.float rng 100.0)
         ~y:(Psp_util.Rng.float rng 100.0))
  done;
  for v = 1 to n - 1 do
    let u = Psp_util.Rng.int rng v in
    G.Builder.add_undirected b u v (0.5 +. Psp_util.Rng.float rng 10.0)
  done;
  for _ = 1 to extra do
    let u = Psp_util.Rng.int rng n and v = Psp_util.Rng.int rng n in
    if u <> v then G.Builder.add_edge b u v (0.5 +. Psp_util.Rng.float rng 10.0)
  done;
  G.Builder.freeze b

(* O(VE) Bellman–Ford reference *)
let bellman_ford g source =
  let n = G.node_count g in
  let dist = Array.make n infinity in
  dist.(source) <- 0.0;
  for _ = 1 to n do
    G.iter_edges g (fun e ->
        if dist.(e.G.src) +. e.G.weight < dist.(e.G.dst) then
          dist.(e.G.dst) <- dist.(e.G.src) +. e.G.weight)
  done;
  dist

let close a b = (a = infinity && b = infinity) || Float.abs (a -. b) < 1e-6

(* ------------------------------------------------------------------ *)

let test_builder_csr () =
  let g = diamond () in
  Alcotest.(check int) "nodes" 5 (G.node_count g);
  Alcotest.(check int) "edges" 11 (G.edge_count g);
  Alcotest.(check int) "deg 0" 3 (G.out_degree g 0);
  let targets = G.fold_out g 0 (fun acc e -> e.G.dst :: acc) [] in
  Alcotest.(check int) "three out-edges of 0" 3 (List.length targets);
  List.iter
    (fun t -> Alcotest.(check bool) "expected target" true (List.mem t [ 1; 3; 4 ]))
    targets

let test_builder_validation () =
  let b = G.Builder.create () in
  ignore (G.Builder.add_node b ~x:0.0 ~y:0.0);
  Alcotest.check_raises "unknown endpoint"
    (Invalid_argument "Graph.Builder.add_edge: unknown endpoint") (fun () ->
      G.Builder.add_edge b 0 1 1.0);
  Alcotest.check_raises "bad weight"
    (Invalid_argument "Graph.Builder.add_edge: weight must be positive") (fun () ->
      G.Builder.add_edge b 0 0 0.0)

let test_reverse () =
  let g = diamond () in
  let r, _ = G.reverse g in
  Alcotest.(check int) "same edges" (G.edge_count g) (G.edge_count r);
  (* directed shortcut 0->4 becomes 4->0 *)
  let has_40 = G.fold_out r 4 (fun acc e -> acc || e.G.dst = 0) false in
  Alcotest.(check bool) "flipped shortcut" true has_40

(* Each reversed edge is its forward edge flipped, the id map is a
   permutation, and a node's reversed out-edges are its forward in-edges
   in ascending forward id: the order backward searches relax them in. *)
let test_reverse_ids () =
  List.iter
    (fun g ->
      let r, forward = G.reverse g in
      let m = G.edge_count g in
      Alcotest.(check int) "one id per edge" m (Array.length forward);
      Alcotest.(check (list int)) "a permutation" (List.init m Fun.id)
        (List.sort compare (Array.to_list forward));
      G.iter_edges r (fun e ->
          let f = G.edge g forward.(e.G.id) in
          Alcotest.(check (triple int int (float 0.0))) "flipped"
            (f.G.dst, f.G.src, f.G.weight) (e.G.src, e.G.dst, e.G.weight));
      for v = 0 to G.node_count g - 1 do
        let ins = ref [] in
        G.iter_edges g (fun e -> if e.G.dst = v then ins := e.G.id :: !ins);
        let outs = G.fold_out r v (fun acc e -> forward.(e.G.id) :: acc) [] in
        Alcotest.(check (list int)) "in-edges by forward id" (List.rev !ins) (List.rev outs)
      done)
    [ diamond (); build_random (30, 40, 7) ];
  let ins = G.fold_out (fst (G.reverse (diamond ()))) 4 (fun acc _ -> acc + 1) 0 in
  Alcotest.(check int) "in-degree of 4" 3 ins

let test_euclidean_and_bbox () =
  let g = diamond () in
  Alcotest.(check (float 1e-9)) "euclid" 2.0 (G.euclidean g 0 2);
  let x0, y0, x1, y1 = G.bounding_box g in
  Alcotest.(check (float 0.0)) "min x" 0.0 x0;
  Alcotest.(check (float 0.0)) "min y" (-1.0) y0;
  Alcotest.(check (float 0.0)) "max x" 2.0 x1;
  Alcotest.(check (float 0.0)) "max y" 0.0 y1

(* ------------------------------------------------------------------ *)
(* Dijkstra *)

let test_dijkstra_diamond () =
  let g = diamond () in
  Alcotest.(check (float 1e-9)) "0->2" 2.0 (Psp_graph.Dijkstra.distance g 0 2);
  Alcotest.(check (float 1e-9)) "0->4 via chain beats shortcut" 3.0
    (Psp_graph.Dijkstra.distance g 0 4);
  Alcotest.(check (float 1e-9)) "0->3" 4.0 (Psp_graph.Dijkstra.distance g 0 3);
  Alcotest.(check (float 0.0)) "self" 0.0 (Psp_graph.Dijkstra.distance g 2 2)

let dijkstra_vs_bellman_ford =
  qtest "dijkstra matches bellman-ford" random_graph_gen (fun spec ->
      let g = build_random spec in
      let spt = Psp_graph.Dijkstra.tree g ~source:0 in
      let reference = bellman_ford g 0 in
      Array.for_all2 close spt.Psp_graph.Dijkstra.dist reference)

let dijkstra_path_valid =
  qtest "dijkstra paths are valid and cost-consistent" random_graph_gen (fun spec ->
      let g = build_random spec in
      let n = G.node_count g in
      let ok = ref true in
      for t = 0 to min (n - 1) 10 do
        match Psp_graph.Dijkstra.shortest_path g 0 t with
        | None -> ()
        | Some p ->
            if not (Psp_graph.Path.is_valid g p) then ok := false;
            if not (close (Psp_graph.Path.cost p) (Psp_graph.Dijkstra.distance g 0 t)) then
              ok := false
      done;
      !ok)

let test_dijkstra_tree_until () =
  let g = diamond () in
  let spt = Psp_graph.Dijkstra.tree_until g ~source:0 ~targets:[ 1 ] in
  Alcotest.(check (float 1e-9)) "target settled" 1.0 spt.Psp_graph.Dijkstra.dist.(1);
  Alcotest.(check bool) "early stop" true (spt.Psp_graph.Dijkstra.settled <= 3)

(* Stopping early must not change what is settled: each target's
   distance and tree path agree with the full tree's. *)
let tree_until_agrees =
  qtest "tree_until agrees with the full tree on its targets" random_graph_gen
    (fun spec ->
      let g = build_random spec in
      let n = G.node_count g in
      let targets = [ n - 1; n / 2 ] in
      let full = Psp_graph.Dijkstra.tree g ~source:0 in
      let early = Psp_graph.Dijkstra.tree_until g ~source:0 ~targets in
      List.for_all
        (fun t ->
          close early.Psp_graph.Dijkstra.dist.(t) full.Psp_graph.Dijkstra.dist.(t)
          &&
          match Psp_graph.Dijkstra.path_to g early t with
          | None -> full.Psp_graph.Dijkstra.dist.(t) = infinity
          | Some p ->
              Psp_graph.Path.is_valid g p
              && Psp_graph.Path.target p = t
              && close (Psp_graph.Path.cost p) full.Psp_graph.Dijkstra.dist.(t))
        targets)

(* The search loop every Dijkstra entry point ran on the swapping heap
   ([Ref_min_heap]) before the workspace core, kept verbatim as the
   tie-order reference: on
   graphs with many equal-length shortest paths, [parent] and
   [parent_edge] depend on the exact order the heap pops equal
   priorities, so a core that settles in another order fails here even
   where every distance agrees. *)
module Graph = Psp_graph.Graph

let reference_run g ~source ~stop =
  let n = Graph.node_count g in
  if source < 0 || source >= n then invalid_arg "Dijkstra: source out of range";
  let dist = Array.make n infinity in
  let parent = Array.make n (-1) in
  let parent_edge = Array.make n (-1) in
  let done_ = Array.make n false in
  let heap = Ref_min_heap.create () in
  dist.(source) <- 0.0;
  Ref_min_heap.push heap ~priority:0.0 source;
  let settled = ref 0 in
  let finished = ref false in
  while (not !finished) && not (Ref_min_heap.is_empty heap) do
    let d = Ref_min_heap.min_priority heap in
    let u = Ref_min_heap.pop_min heap in
    if not done_.(u) then begin
      done_.(u) <- true;
      incr settled;
      if stop u then finished := true
      else
        (* the CSR row directly: no edge record or closure per relaxation *)
        for e = Graph.out_start g u to Graph.out_start g (u + 1) - 1 do
          let v = Graph.edge_dst g e in
          let nd = d +. Graph.edge_weight g e in
          if nd < dist.(v) then begin
            dist.(v) <- nd;
            parent.(v) <- u;
            parent_edge.(v) <- e;
            Ref_min_heap.push heap ~priority:nd v
          end
        done
    end
  done;
  { Psp_graph.Dijkstra.dist; parent; parent_edge; settled = !settled }

(* [tree], [tree_until] and a reused workspace against the reference,
   from every source: the same arrays, compared exactly, and the same
   settled count. *)
let same_as_reference g =
  let module D = Psp_graph.Dijkstra in
  let n = G.node_count g in
  let same (a : D.spt) (b : D.spt) =
    a.D.dist = b.D.dist && a.D.parent = b.D.parent && a.D.parent_edge = b.D.parent_edge
    && a.D.settled = b.D.settled
  in
  let ws = D.workspace g in
  List.for_all
    (fun s ->
      let full = reference_run g ~source:s ~stop:(fun _ -> false) in
      let targets = [ (s + (n / 2)) mod n; n - 1 - s ] in
      let pending = Hashtbl.create 4 in
      List.iter (fun t -> Hashtbl.replace pending t ()) targets;
      let early =
        reference_run g ~source:s ~stop:(fun u ->
            Hashtbl.remove pending u;
            Hashtbl.length pending = 0)
      in
      let tree = D.tree g ~source:s in
      let until = D.tree_until g ~source:s ~targets in
      D.grow ws ~source:s;
      (* later searches leave a returned tree alone *)
      ignore (D.distance g s (n - 1));
      same tree full
      && same until early
      && same
           { D.dist = D.dist ws;
             parent = D.parent ws;
             parent_edge = D.parent_edge ws;
             settled = D.settled ws }
           full)
    (List.init n Fun.id)

(* a [side] x [side] grid of unit-weight two-way streets: almost every
   node has several shortest paths from any source *)
let unit_grid side =
  let b = G.Builder.create () in
  for y = 0 to side - 1 do
    for x = 0 to side - 1 do
      ignore (G.Builder.add_node b ~x:(float_of_int x) ~y:(float_of_int y))
    done
  done;
  for y = 0 to side - 1 do
    for x = 0 to side - 1 do
      let v = (y * side) + x in
      if x + 1 < side then G.Builder.add_undirected b v (v + 1) 1.0;
      if y + 1 < side then G.Builder.add_undirected b v (v + side) 1.0
    done
  done;
  G.Builder.freeze b

let test_tie_order_grid () =
  Alcotest.(check bool) "10x10 unit grid" true (same_as_reference (unit_grid 10))

(* random graphs with weights from {1, 2, 3}: ties everywhere, one-way
   edges too *)
let small_weight_graph (n, extra, seed) =
  let rng = Psp_util.Rng.create seed in
  let b = G.Builder.create () in
  for _ = 1 to n do
    ignore (G.Builder.add_node b ~x:0.0 ~y:0.0)
  done;
  let w () = float_of_int (1 + Psp_util.Rng.int rng 3) in
  for v = 1 to n - 1 do
    G.Builder.add_undirected b (Psp_util.Rng.int rng v) v (w ())
  done;
  for _ = 1 to extra do
    let u = Psp_util.Rng.int rng n and v = Psp_util.Rng.int rng n in
    if u <> v then G.Builder.add_edge b u v (w ())
  done;
  G.Builder.freeze b

let tie_order_random =
  qtest "tie order matches the reference on small weights" random_graph_gen
    (fun spec -> same_as_reference (small_weight_graph spec))

let test_dijkstra_unreachable () =
  let b = G.Builder.create () in
  ignore (G.Builder.add_node b ~x:0.0 ~y:0.0);
  ignore (G.Builder.add_node b ~x:1.0 ~y:0.0);
  let g = G.Builder.freeze b in
  Alcotest.(check bool) "unreachable" true (Psp_graph.Dijkstra.distance g 0 1 = infinity);
  Alcotest.(check bool) "no path" true (Psp_graph.Dijkstra.shortest_path g 0 1 = None)

(* ------------------------------------------------------------------ *)
(* Landmark (ALT) *)

(* The ALT bound over the stored vectors never overestimates; that LM
   answers are exact is checked end to end by test_core's LM queries
   against the Dijkstra oracle. *)
let alt_bound lm ~target v =
  let module L = Psp_graph.Landmark in
  let bound = ref 0.0 in
  for a = 0 to L.anchor_count lm - 1 do
    let dv_a = L.to_anchor lm a v and dt_a = L.to_anchor lm a target in
    let da_v = L.from_anchor lm a v and da_t = L.from_anchor lm a target in
    if dv_a < infinity && dt_a < infinity then bound := Float.max !bound (dv_a -. dt_a);
    if da_v < infinity && da_t < infinity then bound := Float.max !bound (da_t -. da_v)
  done;
  !bound

let test_landmark_admissible_and_exact () =
  let g = build_random (30, 40, 77) in
  let lm = Psp_graph.Landmark.select_farthest g ~count:4 ~seed:3 in
  Alcotest.(check int) "anchors" 4 (Psp_graph.Landmark.anchor_count lm);
  for t = 0 to 9 do
    for v = 0 to 29 do
      let d = Psp_graph.Dijkstra.distance g v t in
      if d < infinity then
        Alcotest.(check bool) "admissible" true (alt_bound lm ~target:t v <= d +. 1e-6)
    done
  done

(* ------------------------------------------------------------------ *)
(* Arc-flags *)

let grid_regions g cells =
  (* partition nodes into [cells] vertical stripes by x coordinate *)
  let x0, _, x1, _ = G.bounding_box g in
  let width = (x1 -. x0) /. float_of_int cells in
  Array.init (G.node_count g) (fun v ->
      min (cells - 1) (max 0 (int_of_float ((G.x g v -. x0) /. Float.max width 1e-9))))

(* Dijkstra that relaxes only the edges flagged for the target's region:
   the AF query, whose exactness rests on the construction. *)
let flagged_distance af g ~region_of ~source ~target =
  let module H = Psp_util.Min_heap in
  let dist = Array.make (G.node_count g) infinity in
  let closed = Array.make (G.node_count g) false in
  let heap = H.create () in
  dist.(source) <- 0.0;
  H.push heap ~priority:0.0 source;
  while (not closed.(target)) && not (H.is_empty heap) do
    let u = H.pop_min heap in
    if not closed.(u) then begin
      closed.(u) <- true;
      G.iter_out g u (fun e ->
          let nd = dist.(u) +. e.G.weight in
          if Psp_graph.Arcflag.flag af ~edge:e.G.id ~region:region_of.(target)
             && nd < dist.(e.G.dst)
          then begin
            dist.(e.G.dst) <- nd;
            H.push heap ~priority:nd e.G.dst
          end)
    end
  done;
  dist.(target)

let arcflag_exact =
  qtest ~count:30 "arc-flag query matches dijkstra" random_graph_gen (fun spec ->
      let g = build_random spec in
      let region_of = grid_regions g 4 in
      let af = Psp_graph.Arcflag.compute g ~region_of ~region_count:4 in
      List.for_all
        (fun t ->
          close (flagged_distance af g ~region_of ~source:0 ~target:t)
            (Psp_graph.Dijkstra.distance g 0 t))
        (List.init (min (G.node_count g) 9) Fun.id))

(* Tie order decides which of several shortest paths into a boundary
   node is flagged, so [compute] must flag exactly what the private
   backward search it replaced ([Ref_arcflag], kept verbatim) flags. *)
let same_flags_as_reference g ~region_of ~region_count =
  let af = Psp_graph.Arcflag.compute g ~region_of ~region_count in
  let reference = Ref_arcflag.compute g ~region_of ~region_count in
  List.for_all
    (fun edge ->
      List.for_all
        (fun region ->
          Psp_graph.Arcflag.flag af ~edge ~region = Ref_arcflag.flag reference ~edge ~region)
        (List.init region_count Fun.id))
    (List.init (G.edge_count g) Fun.id)

let test_arcflag_identity_grid () =
  let g = unit_grid 10 in
  Alcotest.(check bool) "4 stripes" true
    (same_flags_as_reference g ~region_of:(grid_regions g 4) ~region_count:4);
  Alcotest.(check bool) "node id mod 7" true
    (same_flags_as_reference g ~region_of:(Array.init 100 (fun v -> v mod 7)) ~region_count:7)

let arcflag_identity_random =
  qtest "flags match the reference on small weights" random_graph_gen (fun spec ->
      let g = small_weight_graph spec in
      same_flags_as_reference g
        ~region_of:(Array.init (G.node_count g) (fun v -> v mod 4))
        ~region_count:4)

let test_arcflag_internal_edges_flagged () =
  let g = build_random (20, 20, 5) in
  let region_of = grid_regions g 3 in
  let af = Psp_graph.Arcflag.compute g ~region_of ~region_count:3 in
  G.iter_edges g (fun e ->
      if region_of.(e.G.src) = region_of.(e.G.dst) then
        Alcotest.(check bool) "internal edge has own-region flag" true
          (Psp_graph.Arcflag.flag af ~edge:e.G.id ~region:region_of.(e.G.dst)))

let test_arcflag_prunes () =
  let g = build_random (40, 30, 9) in
  let region_of = grid_regions g 4 in
  let af = Psp_graph.Arcflag.compute g ~region_of ~region_count:4 in
  let pruned = ref false in
  G.iter_edges g (fun e ->
      for r = 0 to 3 do
        if not (Psp_graph.Arcflag.flag af ~edge:e.G.id ~region:r) then pruned := true
      done);
  Alcotest.(check bool) "some pruning happens" true !pruned

(* ------------------------------------------------------------------ *)
(* Path *)

let test_path_make_and_validate () =
  let g = diamond () in
  let e01 = G.fold_out g 0 (fun acc e -> if e.G.dst = 1 then Some e.G.id else acc) None in
  let e12 = G.fold_out g 1 (fun acc e -> if e.G.dst = 2 then Some e.G.id else acc) None in
  let p = Psp_graph.Path.make g ~edges:[ Option.get e01; Option.get e12 ] in
  Alcotest.(check int) "source" 0 (Psp_graph.Path.source p);
  Alcotest.(check int) "target" 2 (Psp_graph.Path.target p);
  Alcotest.(check int) "hops" 2 (Psp_graph.Path.hop_count p);
  Alcotest.(check (float 1e-9)) "cost" 2.0 (Psp_graph.Path.cost p);
  Alcotest.(check bool) "valid" true (Psp_graph.Path.is_valid g p);
  Alcotest.check_raises "non-contiguous"
    (Invalid_argument "Path.make: edges are not contiguous") (fun () ->
      ignore (Psp_graph.Path.make g ~edges:[ Option.get e12; Option.get e01 ]))

let test_path_trivial () =
  let p = Psp_graph.Path.trivial 7 in
  Alcotest.(check int) "source=target" 7 (Psp_graph.Path.source p);
  Alcotest.(check (float 0.0)) "zero cost" 0.0 (Psp_graph.Path.cost p);
  Alcotest.(check int) "no hops" 0 (Psp_graph.Path.hop_count p)

(* Alcotest cuts long test names to the width the widest group label
   leaves, so a group label's length is part of every printed name. *)
let () =
  Alcotest.run "graph"
    [ ( "structure",
        [ Alcotest.test_case "builder/CSR" `Quick test_builder_csr;
          Alcotest.test_case "validation" `Quick test_builder_validation;
          Alcotest.test_case "reverse" `Quick test_reverse;
          Alcotest.test_case "reverse ids" `Quick test_reverse_ids;
          Alcotest.test_case "euclid/bbox" `Quick test_euclidean_and_bbox ] );
      ( "dijkstra",
        [ Alcotest.test_case "diamond" `Quick test_dijkstra_diamond;
          dijkstra_vs_bellman_ford;
          dijkstra_path_valid;
          Alcotest.test_case "tree_until" `Quick test_dijkstra_tree_until;
          Alcotest.test_case "unreachable" `Quick test_dijkstra_unreachable ] );
      ( "shortest-path",
        [ tree_until_agrees;
          Alcotest.test_case "tie order on a unit grid" `Quick test_tie_order_grid;
          tie_order_random ] );
      ( "landmark",
        [ Alcotest.test_case "admissible and exact" `Slow test_landmark_admissible_and_exact ] );
      ( "arcflag",
        [ arcflag_exact;
          Alcotest.test_case "internal edges flagged" `Quick test_arcflag_internal_edges_flagged;
          Alcotest.test_case "prunes" `Quick test_arcflag_prunes;
          Alcotest.test_case "identity on a unit grid" `Quick test_arcflag_identity_grid;
          arcflag_identity_random ] );
      ( "path",
        [ Alcotest.test_case "make/validate" `Quick test_path_make_and_validate;
          Alcotest.test_case "trivial" `Quick test_path_trivial ] ) ]
