type spt = {
  dist : float array;
  parent : int array;
  parent_edge : int array;
  settled : int;
}

type workspace = {
  row : int array;
  dst : int array;
  weight : float array;
  ws_dist : float array;
  ws_parent : int array;
  ws_parent_edge : int array;
  done_ : Bytes.t; (* '\001' once settled *)
  (* each edge relaxes at most once per search, so [edge_count + 1]
     entries always suffice and the heap never grows *)
  heap : Psp_util.Min_heap.t;
  mutable ws_settled : int;
}

let workspace g =
  let n = Graph.node_count g and m = Graph.edge_count g in
  let row, dst, weight = Graph.csr g in
  { row;
    dst;
    weight;
    ws_dist = Array.make n infinity;
    ws_parent = Array.make n (-1);
    ws_parent_edge = Array.make n (-1);
    done_ = Bytes.make n '\000';
    heap = Psp_util.Min_heap.create ~capacity:(m + 1) ();
    ws_settled = 0 }

(* The one search loop.  [stop] may end the search after a node is
   settled.  Every distance update pushes, and only strictly smaller
   ones follow the first, so the first pop of a node carries exactly
   [dist] of it: the loop reads [dist] instead of the popped priority. *)
let run ws ~source ~stop =
  let n = Array.length ws.ws_dist in
  if source < 0 || source >= n then invalid_arg "Dijkstra: source out of range";
  let row = ws.row and dst = ws.dst and weight = ws.weight in
  let dist = ws.ws_dist and parent = ws.ws_parent and parent_edge = ws.ws_parent_edge in
  let done_ = ws.done_ and heap = ws.heap in
  Array.fill dist 0 n infinity;
  Array.fill parent 0 n (-1);
  Array.fill parent_edge 0 n (-1);
  Bytes.fill done_ 0 n '\000';
  Psp_util.Min_heap.clear heap;
  dist.(source) <- 0.0;
  Psp_util.Min_heap.push heap ~priority:0.0 source;
  let settled = ref 0 in
  let finished = ref false in
  while (not !finished) && not (Psp_util.Min_heap.is_empty heap) do
    let u = Psp_util.Min_heap.pop_min heap in
    if Bytes.get done_ u = '\000' then begin
      Bytes.set done_ u '\001';
      incr settled;
      if stop u then finished := true
      else begin
        let d = dist.(u) in
        for e = row.(u) to row.(u + 1) - 1 do
          let v = dst.(e) in
          let nd = d +. weight.(e) in
          if nd < dist.(v) then begin
            dist.(v) <- nd;
            parent.(v) <- u;
            parent_edge.(v) <- e;
            Psp_util.Min_heap.push heap ~priority:nd v
          end
        done
      end
    end
  done;
  ws.ws_settled <- !settled

let never (_ : int) = false
let grow ws ~source = run ws ~source ~stop:never
let dist ws = ws.ws_dist
let parent ws = ws.ws_parent
let parent_edge ws = ws.ws_parent_edge
let settled ws = ws.ws_settled

(* A one-shot search hands the workspace's own arrays over: nothing
   else holds the workspace. *)
let search g ~source ~stop =
  let ws = workspace g in
  run ws ~source ~stop;
  { dist = ws.ws_dist;
    parent = ws.ws_parent;
    parent_edge = ws.ws_parent_edge;
    settled = ws.ws_settled }

let tree g ~source = search g ~source ~stop:never

let tree_until g ~source ~targets =
  let pending = Hashtbl.create 16 in
  List.iter (fun t -> Hashtbl.replace pending t ()) targets;
  let stop u =
    Hashtbl.remove pending u;
    Hashtbl.length pending = 0
  in
  search g ~source ~stop

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
  if s = t then 0.0 else (search g ~source:s ~stop:(fun u -> u = t)).dist.(t)

let shortest_path g s t =
  if s = t then Some (Path.trivial s)
  else path_to g (search g ~source:s ~stop:(fun u -> u = t)) t
