type result = { path : Path.t option; settled : int }

type side = {
  dist : float array;
  parent : int array;
  parent_edge : int array; (* forward edge ids on both sides *)
  closed : bool array;
  heap : Psp_util.Min_heap.t;
}

let make_side n source =
  let s =
    { dist = Array.make n infinity;
      parent = Array.make n (-1);
      parent_edge = Array.make n (-1);
      closed = Array.make n false;
      heap = Psp_util.Min_heap.create () }
  in
  s.dist.(source) <- 0.0;
  Psp_util.Min_heap.push s.heap ~priority:0.0 source;
  s

let search g ~source ~target =
  let n = Graph.node_count g in
  if source < 0 || source >= n || target < 0 || target >= n then
    invalid_arg "Bidirectional: endpoint out of range";
  if source = target then { path = Some (Path.trivial source); settled = 0 }
  else begin
    let fwd = make_side n source and bwd = make_side n target in
    let best = ref infinity and meet = ref (-1) in
    let settled = ref 0 in
    let try_meet v =
      if fwd.dist.(v) < infinity && bwd.dist.(v) < infinity then begin
        let total = fwd.dist.(v) +. bwd.dist.(v) in
        if total < !best then begin
          best := total;
          meet := v
        end
      end
    in
    let step side iterate =
      if not (Psp_util.Min_heap.is_empty side.heap) then begin
        let d = Psp_util.Min_heap.min_priority side.heap in
        let u = Psp_util.Min_heap.pop_min side.heap in
        if not side.closed.(u) then begin
          side.closed.(u) <- true;
          incr settled;
          iterate u (fun (other, edge_id, w) ->
              let nd = d +. w in
              if nd < side.dist.(other) then begin
                side.dist.(other) <- nd;
                side.parent.(other) <- u;
                side.parent_edge.(other) <- edge_id;
                Psp_util.Min_heap.push side.heap ~priority:nd other
              end;
              try_meet other);
          try_meet u
        end
      end
    in
    let fwd_iter u f = Graph.iter_out g u (fun e -> f (e.Graph.dst, e.Graph.id, e.Graph.weight)) in
    let bwd_iter u f = Graph.iter_in g u (fun e -> f (e.Graph.src, e.Graph.id, e.Graph.weight)) in
    let top side =
      if Psp_util.Min_heap.is_empty side.heap then infinity
      else Psp_util.Min_heap.min_priority side.heap
    in
    let continue () =
      top fwd +. top bwd < !best
      && not (Psp_util.Min_heap.is_empty fwd.heap && Psp_util.Min_heap.is_empty bwd.heap)
    in
    while continue () do
      if top fwd <= top bwd then step fwd fwd_iter else step bwd bwd_iter
    done;
    let path =
      if !meet = -1 then None
      else begin
        let rec fwd_edges v acc =
          if fwd.parent_edge.(v) = -1 then acc
          else fwd_edges fwd.parent.(v) (fwd.parent_edge.(v) :: acc)
        in
        let rec bwd_edges v acc =
          (* backward tree stores forward edges v -> parent direction *)
          if bwd.parent_edge.(v) = -1 then List.rev acc
          else bwd_edges bwd.parent.(v) (bwd.parent_edge.(v) :: acc)
        in
        let edges = fwd_edges !meet [] @ bwd_edges !meet [] in
        if edges = [] then Some (Path.trivial source)
        else Some (Path.make g ~edges)
      end
    in
    { path; settled = !settled }
  end

let distance g s t =
  match (search g ~source:s ~target:t).path with
  | None -> infinity
  | Some p -> Path.cost p
