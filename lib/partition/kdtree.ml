module G = Psp_graph.Graph

type axis = X | Y

type tree =
  | Leaf of { region : int }
  | Split of { axis : axis; coord : float; less : tree; geq : tree }

type t = {
  tree : tree;
  region_count : int;
  assignment : int array;
  region_nodes : int array array;
}

let other = function X -> Y | Y -> X

(* Builders operate on an item array of (node id, size); leaves are
   numbered in construction order by a shared counter. *)
type ctx = {
  g : G.t;
  sizes : int array;
  capacity : int;
  z : int; (* largest single node payload *)
  mutable next_region : int;
  leaves : int array Psp_util.Dyn_array.t; (* region id -> node ids *)
}

let coord_of ctx axis v = match axis with X -> G.x ctx.g v | Y -> G.y ctx.g v

let total_bytes ctx items = Array.fold_left (fun acc v -> acc + ctx.sizes.(v)) 0 items

let make_leaf ctx items =
  let region = ctx.next_region in
  ctx.next_region <- region + 1;
  Psp_util.Dyn_array.push ctx.leaves (Array.copy items);
  Leaf { region }

let sort_by ctx axis items =
  let items = Array.copy items in
  Array.sort
    (fun a b ->
      let c = compare (coord_of ctx axis a) (coord_of ctx axis b) in
      if c <> 0 then c else compare a b)
    items;
  items

(* Split the sorted stream at the item whose cumulative byte count first
   reaches [target]; the overlapping node is pushed left.  Returns the
   split index (start of the right part) clamped so neither side is
   empty, and the split coordinate halfway between the parts. *)
let split_at ctx axis items target =
  let n = Array.length items in
  let idx = ref 0 and acc = ref 0 in
  while !idx < n && !acc < target do
    acc := !acc + ctx.sizes.(items.(!idx));
    incr idx
  done;
  let idx = max 1 (min (n - 1) !idx) in
  let a = coord_of ctx axis items.(idx - 1) and b = coord_of ctx axis items.(idx) in
  let coord = if b > a then 0.5 *. (a +. b) else b in
  (idx, coord)

(* Plain splitting at the middle byte of the stream, used both for the
   plain variant (until the payload fits) and for packed left-subtrees
   (for an exact number of levels). *)
let rec split_plain ctx items axis ~until =
  let total = total_bytes ctx items in
  let stop = match until with `Fits -> total <= ctx.capacity | `Levels l -> l = 0 in
  if stop then
    if total <= ctx.capacity then make_leaf ctx items
    else
      (* safety net for packed construction: boundary-node pushes can in
         rare cases overfill a planned leaf — keep splitting *)
      split_plain ctx items axis ~until:`Fits
  else begin
    let sorted = sort_by ctx axis items in
    let idx, coord = split_at ctx axis sorted (total / 2) in
    let left = Array.sub sorted 0 idx in
    let right = Array.sub sorted idx (Array.length sorted - idx) in
    let until' = match until with `Fits -> `Fits | `Levels l -> `Levels (l - 1) in
    let less = split_plain ctx left (other axis) ~until:until' in
    let geq = split_plain ctx right (other axis) ~until:until' in
    Split { axis; coord; less; geq }
  end

(* §5.6 root-type split: byte position 2^i * (capacity - z) for the
   smallest i past the middle of the stream. *)
let rec split_packed ctx items axis =
  let total = total_bytes ctx items in
  if total <= ctx.capacity then make_leaf ctx items
  else begin
    let unit = max 1 (ctx.capacity - ctx.z) in
    let rec find_i i pos = if 2 * pos > total then (i, pos) else find_i (i + 1) (2 * pos) in
    let levels, target = find_i 0 unit in
    let sorted = sort_by ctx axis items in
    let idx, coord = split_at ctx axis sorted target in
    let left = Array.sub sorted 0 idx in
    let right = Array.sub sorted idx (Array.length sorted - idx) in
    let less = split_plain ctx left (other axis) ~until:(`Levels levels) in
    let geq = split_packed ctx right (other axis) in
    Split { axis; coord; less; geq }
  end

let build ~variant g ~node_bytes ~capacity =
  let n = G.node_count g in
  if n = 0 then invalid_arg "Kdtree.build: empty graph";
  if capacity <= 0 then invalid_arg "Kdtree.build: capacity must be positive";
  let sizes = Array.init n node_bytes in
  let z = Array.fold_left max 0 sizes in
  if z > capacity then
    invalid_arg
      (Printf.sprintf "Kdtree.build: node payload %d exceeds page capacity %d" z capacity);
  let ctx =
    { g; sizes; capacity; z; next_region = 0; leaves = Psp_util.Dyn_array.create () }
  in
  let items = Array.init n (fun v -> v) in
  let tree =
    match variant with
    | `Packed -> split_packed ctx items X
    | `Plain -> split_plain ctx items X ~until:`Fits
  in
  let region_nodes = Psp_util.Dyn_array.to_array ctx.leaves in
  let assignment = Array.make n (-1) in
  Array.iteri
    (fun region nodes -> Array.iter (fun v -> assignment.(v) <- region) nodes)
    region_nodes;
  { tree; region_count = ctx.next_region; assignment; region_nodes }

let build_packed g ~node_bytes ~capacity = build ~variant:`Packed g ~node_bytes ~capacity
let build_plain g ~node_bytes ~capacity = build ~variant:`Plain g ~node_bytes ~capacity

let rec locate_tree tree ~x ~y =
  match tree with
  | Leaf { region } -> region
  | Split { axis; coord; less; geq } ->
      let c = match axis with X -> x | Y -> y in
      if c < coord then locate_tree less ~x ~y else locate_tree geq ~x ~y
  [@@leak_ok
    "client-local descent of the downloaded KD-tree index: the comparisons \
     run on the client, and the resulting region only feeds the plan-shaped \
     page schedule, which is public by definition"]

let locate t ~x ~y = locate_tree t.tree ~x ~y

let region_of_node t v = t.assignment.(v)
let nodes_of_region t r = Array.copy t.region_nodes.(r)

let region_bytes t ~node_bytes r =
  Array.fold_left (fun acc v -> acc + node_bytes v) 0 t.region_nodes.(r)

let utilization t ~node_bytes ~capacity =
  if t.region_count = 0 then 0.0
  else begin
    let used = ref 0 in
    for r = 0 to t.region_count - 1 do
      used := !used + region_bytes t ~node_bytes r
    done;
    float_of_int !used /. float_of_int (t.region_count * capacity)
  end

module W = Psp_util.Byte_io.Writer
module R = Psp_util.Byte_io.Reader

let write_tree w tree =
  let rec emit = function
    | Leaf { region } ->
        W.u8 w 0;
        W.varint w region
    | Split { axis; coord; less; geq } ->
        W.u8 w (match axis with X -> 1 | Y -> 2);
        W.float64 w coord;
        emit less;
        emit geq
  in
  emit tree

let read_tree r ~region_count =
  let rec parse () =
    match R.u8 r with
    | 0 ->
        let region = R.varint r in
        if region < 0 || region >= region_count then
          invalid_arg
            (Printf.sprintf "Kdtree.read_tree: leaf region %d outside [0,%d)" region
               region_count);
        Leaf { region }
    | 1 -> split X
    | 2 -> split Y
    | tag -> invalid_arg (Printf.sprintf "Kdtree.read_tree: bad node tag %d" tag)
  and split axis =
    let coord = R.float64 r in
    let less = parse () in
    let geq = parse () in
    Split { axis; coord; less; geq }
  in
  parse ()
