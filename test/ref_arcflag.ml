(* Arc-flag pre-computation as it stood before [Arcflag.compute] grew
   its trees with [Dijkstra.grow] on the reversed graph: a private
   backward search per boundary node, over in-edges, on the swapping
   heap.  Copied verbatim except that the heap is [Ref_min_heap] and
   the in-edge iterator (a lazily cached reverse adjacency inside
   [Graph.t] then) is rebuilt beside it, in the order it had: a node's
   in-edges by ascending forward id.  Tests
   compare [Arcflag.compute] against it flag for flag, so the tie-order
   reference does not depend on the code it checks. *)

module Graph = Psp_graph.Graph

type t = { flags : Psp_util.Bitset.t array; (* per edge *) region_count : int }

(* The reverse adjacency: a counting sort of the edge ids by target. *)
let in_edges g =
  let n = Graph.node_count g and m = Graph.edge_count g in
  let rrow = Array.make (n + 1) 0 in
  Graph.iter_edges g (fun e -> rrow.(e.Graph.dst + 1) <- rrow.(e.Graph.dst + 1) + 1);
  for i = 1 to n do
    rrow.(i) <- rrow.(i) + rrow.(i - 1)
  done;
  let cursor = Array.copy rrow in
  let redge = Array.make m 0 in
  Graph.iter_edges g (fun e ->
      let slot = cursor.(e.Graph.dst) in
      cursor.(e.Graph.dst) <- slot + 1;
      redge.(slot) <- e.Graph.id);
  fun v f ->
    for i = rrow.(v) to rrow.(v + 1) - 1 do
      f (Graph.edge g redge.(i))
    done

(* Backward Dijkstra from [b] over incoming edges, flagging every tree
   edge (a canonical shortest path into b) with [region]. *)
let flag_backward_tree g iter_in flags ~b ~region =
  let n = Graph.node_count g in
  let dist = Array.make n infinity in
  let tree_edge = Array.make n (-1) in
  let closed = Array.make n false in
  let heap = Ref_min_heap.create () in
  dist.(b) <- 0.0;
  Ref_min_heap.push heap ~priority:0.0 b;
  while not (Ref_min_heap.is_empty heap) do
    let d = Ref_min_heap.min_priority heap in
    let u = Ref_min_heap.pop_min heap in
    if not closed.(u) then begin
      closed.(u) <- true;
      if tree_edge.(u) >= 0 then Psp_util.Bitset.set flags.(tree_edge.(u)) region;
      iter_in u (fun e ->
          let v = e.Graph.src in
          let nd = d +. e.Graph.weight in
          if nd < dist.(v) then begin
            dist.(v) <- nd;
            tree_edge.(v) <- e.Graph.id;
            Ref_min_heap.push heap ~priority:nd v
          end)
    end
  done

let compute g ~region_of ~region_count =
  let n = Graph.node_count g in
  if Array.length region_of <> n then
    invalid_arg "Arcflag.compute: region_of length mismatch";
  Array.iter
    (fun r ->
      if r < 0 || r >= region_count then
        invalid_arg "Arcflag.compute: region id out of range")
    region_of;
  let flags = Array.init (Graph.edge_count g) (fun _ -> Psp_util.Bitset.create region_count) in
  (* internal edges are always useful inside their own region *)
  Graph.iter_edges g (fun e ->
      if region_of.(e.Graph.src) = region_of.(e.Graph.dst) then
        Psp_util.Bitset.set flags.(e.Graph.id) region_of.(e.Graph.dst));
  (* boundary nodes: region-j nodes with an in-edge from outside j *)
  let iter_in = in_edges g in
  for v = 0 to n - 1 do
    let r = region_of.(v) in
    let is_boundary = ref false in
    iter_in v (fun e ->
        if region_of.(e.Graph.src) <> r then is_boundary := true);
    if !is_boundary then flag_backward_tree g iter_in flags ~b:v ~region:r
  done;
  { flags; region_count }

let flag t ~edge ~region = Psp_util.Bitset.mem t.flags.(edge) region
