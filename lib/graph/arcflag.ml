type t = { flags : Psp_util.Bitset.t array; (* per edge *) region_count : int }

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
  (* A backward tree from b is a forward tree on the reversed graph,
     whose out-edges of a node are its forward in-edges. *)
  let rev, forward = Graph.reverse g in
  let ws = Dijkstra.workspace rev in
  for b = 0 to n - 1 do
    (* boundary nodes: region-j nodes with an in-edge from outside j *)
    let r = region_of.(b) in
    let is_boundary = ref false in
    for e = Graph.out_start rev b to Graph.out_start rev (b + 1) - 1 do
      if region_of.(Graph.edge_dst rev e) <> r then is_boundary := true
    done;
    if !is_boundary then begin
      (* flag every tree edge (a canonical shortest path into b) with r *)
      Dijkstra.grow ws ~source:b;
      let parent_edge = Dijkstra.parent_edge ws in
      for v = 0 to n - 1 do
        let e = parent_edge.(v) in
        if e >= 0 then Psp_util.Bitset.set flags.(forward.(e)) r
      done
    end
  done;
  { flags; region_count }

let region_count t = t.region_count

let flag t ~edge ~region = Psp_util.Bitset.mem t.flags.(edge) region
let flags_of_edge t e = Psp_util.Bitset.copy t.flags.(e)
