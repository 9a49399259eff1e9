type t = { flags : Psp_util.Bitset.t array; (* per edge *) region_count : int }

(* Backward Dijkstra from [b] over incoming edges, flagging every tree
   edge (a canonical shortest path into b) with [region]. *)
let flag_backward_tree g flags ~b ~region =
  let n = Graph.node_count g in
  let dist = Array.make n infinity in
  let tree_edge = Array.make n (-1) in
  let closed = Array.make n false in
  let heap = Psp_util.Min_heap.create () in
  dist.(b) <- 0.0;
  Psp_util.Min_heap.push heap ~priority:0.0 b;
  while not (Psp_util.Min_heap.is_empty heap) do
    let d = Psp_util.Min_heap.min_priority heap in
    let u = Psp_util.Min_heap.pop_min heap in
    if not closed.(u) then begin
      closed.(u) <- true;
      if tree_edge.(u) >= 0 then Psp_util.Bitset.set flags.(tree_edge.(u)) region;
      Graph.iter_in g u (fun e ->
          let v = e.Graph.src in
          let nd = d +. e.Graph.weight in
          if nd < dist.(v) then begin
            dist.(v) <- nd;
            tree_edge.(v) <- e.Graph.id;
            Psp_util.Min_heap.push heap ~priority:nd v
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
  for v = 0 to n - 1 do
    let r = region_of.(v) in
    let is_boundary = ref false in
    Graph.iter_in g v (fun e ->
        if region_of.(e.Graph.src) <> r then is_boundary := true);
    if !is_boundary then flag_backward_tree g flags ~b:v ~region:r
  done;
  { flags; region_count }

let region_count t = t.region_count

let flag t ~edge ~region = Psp_util.Bitset.mem t.flags.(edge) region
let flags_of_edge t e = Psp_util.Bitset.copy t.flags.(e)

let flag_bytes_per_edge t = (t.region_count + 7) / 8

type search_result = { path : Path.t option; settled : int; relaxed : int }

let query t g ~region_of ~source ~target =
  let n = Graph.node_count g in
  if source < 0 || source >= n || target < 0 || target >= n then
    invalid_arg "Arcflag.query: endpoint out of range";
  let dest_region = region_of.(target) in
  let dist = Array.make n infinity in
  let parent = Array.make n (-1) in
  let parent_edge = Array.make n (-1) in
  let closed = Array.make n false in
  let heap = Psp_util.Min_heap.create () in
  dist.(source) <- 0.0;
  Psp_util.Min_heap.push heap ~priority:0.0 source;
  let settled = ref 0 and relaxed = ref 0 in
  let found = ref false in
  while (not !found) && not (Psp_util.Min_heap.is_empty heap) do
    let d = Psp_util.Min_heap.min_priority heap in
    let u = Psp_util.Min_heap.pop_min heap in
    if not closed.(u) then begin
      closed.(u) <- true;
      incr settled;
      if u = target then found := true
      else
        Graph.iter_out g u (fun e ->
            if Psp_util.Bitset.mem t.flags.(e.Graph.id) dest_region then begin
              let v = e.Graph.dst in
              let nd = d +. e.Graph.weight in
              if nd < dist.(v) then begin
                incr relaxed;
                dist.(v) <- nd;
                parent.(v) <- u;
                parent_edge.(v) <- e.Graph.id;
                Psp_util.Min_heap.push heap ~priority:nd v
              end
            end)
    end
  done;
  let path =
    if source = target then Some (Path.trivial source)
    else if not !found then None
    else begin
      let rec collect v acc =
        if parent_edge.(v) = -1 then acc else collect parent.(v) (parent_edge.(v) :: acc)
      in
      Some (Path.make g ~edges:(collect target []))
    end
  in
  { path; settled = !settled; relaxed = !relaxed }
