type result = { path : Path.t option; settled : int; relaxed : int }

let run g ~heuristic ~source ~target ~on_settle =
  let n = Graph.node_count g in
  if source < 0 || source >= n || target < 0 || target >= n then
    invalid_arg "Astar: endpoint out of range";
  let dist = Array.make n infinity in
  let parent_edge = Array.make n (-1) in
  let parent = Array.make n (-1) in
  let closed = Array.make n false in
  let heap = Psp_util.Min_heap.create () in
  dist.(source) <- 0.0;
  Psp_util.Min_heap.push heap ~priority:(heuristic source) source;
  let settled = ref 0 and relaxed = ref 0 in
  let found = ref false in
  while (not !found) && not (Psp_util.Min_heap.is_empty heap) do
    let u = Psp_util.Min_heap.pop_min heap in
    if not closed.(u) then begin
      closed.(u) <- true;
      incr settled;
      on_settle u;
      if u = target then found := true
      else
        Graph.iter_out g u (fun e ->
            let v = e.Graph.dst in
            let nd = dist.(u) +. e.Graph.weight in
            if nd < dist.(v) then begin
              incr relaxed;
              dist.(v) <- nd;
              parent.(v) <- u;
              parent_edge.(v) <- e.Graph.id;
              Psp_util.Min_heap.push heap ~priority:(nd +. heuristic v) v
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

let search g ~heuristic ~source ~target =
  run g ~heuristic ~source ~target ~on_settle:(fun _ -> ())

let euclidean_heuristic g ~target =
  let scale = Graph.min_weight_per_distance g in
  fun v -> scale *. Graph.euclidean g v target

let search_euclidean g ~source ~target =
  search g ~heuristic:(euclidean_heuristic g ~target) ~source ~target

let visited_order g ~heuristic ~source ~target =
  let order = ref [] in
  let _ = run g ~heuristic ~source ~target ~on_settle:(fun u -> order := u :: !order) in
  List.rev !order
