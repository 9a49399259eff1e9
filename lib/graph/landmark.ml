type t = {
  anchors : int array;
  to_anchor : float array array; (* to_anchor.(a).(v) = d(v, anchor_a) *)
  from_anchor : float array array; (* from_anchor.(a).(v) = d(anchor_a, v) *)
}

let select_farthest g ~count ~seed =
  let n = Graph.node_count g in
  if n = 0 then invalid_arg "Landmark.select_farthest: empty graph";
  if count < 1 then invalid_arg "Landmark.select_farthest: count must be >= 1";
  let count = min count n in
  let rng = Psp_util.Rng.create seed in
  let rev, _ = Graph.reverse g in
  let anchors = Psp_util.Dyn_array.create () in
  (* distance from each node to its closest already-chosen anchor *)
  let closest = Array.make n infinity in
  let ws = Dijkstra.workspace g in
  let add_anchor a =
    Psp_util.Dyn_array.push anchors a;
    Dijkstra.grow ws ~source:a;
    let dist = Dijkstra.dist ws in
    for v = 0 to n - 1 do
      closest.(v) <- Float.min closest.(v) dist.(v)
    done
  in
  add_anchor (Psp_util.Rng.int rng n);
  while Psp_util.Dyn_array.length anchors < count do
    let best = ref 0 and best_d = ref neg_infinity in
    for v = 0 to n - 1 do
      let d = closest.(v) in
      let d = if d = infinity then -1.0 else d in
      if d > !best_d then begin
        best := v;
        best_d := d
      end
    done;
    add_anchor !best
  done;
  let anchors = Psp_util.Dyn_array.to_array anchors in
  let distances ws a =
    Dijkstra.grow ws ~source:a;
    Array.copy (Dijkstra.dist ws)
  in
  let to_anchor = Array.map (distances (Dijkstra.workspace rev)) anchors in
  let from_anchor = Array.map (distances ws) anchors in
  { anchors; to_anchor; from_anchor }

let anchor_count t = Array.length t.anchors
let anchors t = Array.copy t.anchors
let to_anchor t a v = t.to_anchor.(a).(v)
let from_anchor t a v = t.from_anchor.(a).(v)
