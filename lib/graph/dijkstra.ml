type spt = {
  dist : float array;
  parent : int array;
  parent_edge : int array;
  settled : int;
}

(* Core loop shared by every entry point.  [stop] may terminate the
   search after a node is settled; [allowed] prunes relaxations. *)
let run g ~source ~stop ~allowed =
  let n = Graph.node_count g in
  if source < 0 || source >= n then invalid_arg "Dijkstra: source out of range";
  let dist = Array.make n infinity in
  let parent = Array.make n (-1) in
  let parent_edge = Array.make n (-1) in
  let done_ = Array.make n false in
  let heap = Psp_util.Min_heap.create () in
  dist.(source) <- 0.0;
  Psp_util.Min_heap.push heap ~priority:0.0 source;
  let settled = ref 0 in
  let finished = ref false in
  while (not !finished) && not (Psp_util.Min_heap.is_empty heap) do
    let d = Psp_util.Min_heap.min_priority heap in
    let u = Psp_util.Min_heap.pop_min heap in
    if not done_.(u) then begin
      done_.(u) <- true;
      incr settled;
      if stop u then finished := true
      else
        (* the CSR row directly: no edge record or closure per relaxation *)
        for e = Graph.out_start g u to Graph.out_start g (u + 1) - 1 do
          let v = Graph.edge_dst g e in
          if allowed v then begin
            let nd = d +. Graph.edge_weight g e in
            if nd < dist.(v) then begin
              dist.(v) <- nd;
              parent.(v) <- u;
              parent_edge.(v) <- e;
              Psp_util.Min_heap.push heap ~priority:nd v
            end
          end
        done
    end
  done;
  ({ dist; parent; parent_edge; settled = !settled }, done_)

let tree g ~source =
  fst (run g ~source ~stop:(fun _ -> false) ~allowed:(fun _ -> true))

let tree_until g ~source ~targets =
  let pending = Hashtbl.create 16 in
  List.iter (fun t -> Hashtbl.replace pending t ()) targets;
  let stop u =
    Hashtbl.remove pending u;
    Hashtbl.length pending = 0
  in
  fst (run g ~source ~stop ~allowed:(fun _ -> true))

let path_to g spt target =
  if spt.dist.(target) = infinity then None
  else if spt.parent.(target) = -1 then Some (Path.trivial target)
  else begin
    let rec collect v acc =
      if spt.parent_edge.(v) = -1 then acc
      else collect spt.parent.(v) (spt.parent_edge.(v) :: acc)
    in
    Some (Path.make g ~edges:(collect target []))
  end

let distance g s t =
  if s = t then 0.0
  else begin
    let spt, _ = run g ~source:s ~stop:(fun u -> u = t) ~allowed:(fun _ -> true) in
    spt.dist.(t)
  end

let shortest_path g s t =
  if s = t then Some (Path.trivial s)
  else begin
    let spt, _ = run g ~source:s ~stop:(fun u -> u = t) ~allowed:(fun _ -> true) in
    path_to g spt t
  end

let restricted g ~allowed ~source ~target =
  if not (allowed source && allowed target) then None
  else if source = target then Some (Path.trivial source)
  else begin
    let spt, _ = run g ~source ~stop:(fun u -> u = target) ~allowed in
    path_to g spt target
  end
