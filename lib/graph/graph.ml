type t = {
  xs : float array;
  ys : float array;
  row : int array; (* CSR offsets, length n+1 *)
  g_dst : int array; (* edge targets, by edge id *)
  g_src : int array; (* edge sources, by edge id *)
  g_w : float array;
}

type edge = { src : int; dst : int; weight : float; id : int }

module Builder = struct
  type t = {
    xs : float Psp_util.Dyn_array.t;
    ys : float Psp_util.Dyn_array.t;
    e_src : int Psp_util.Dyn_array.t;
    e_dst : int Psp_util.Dyn_array.t;
    e_w : float Psp_util.Dyn_array.t;
  }

  let create () =
    { xs = Psp_util.Dyn_array.create ();
      ys = Psp_util.Dyn_array.create ();
      e_src = Psp_util.Dyn_array.create ();
      e_dst = Psp_util.Dyn_array.create ();
      e_w = Psp_util.Dyn_array.create () }

  let node_count b = Psp_util.Dyn_array.length b.xs

  let add_node b ~x ~y =
    Psp_util.Dyn_array.push b.xs x;
    Psp_util.Dyn_array.push b.ys y;
    node_count b - 1

  let add_edge b u v w =
    let n = node_count b in
    if u < 0 || u >= n || v < 0 || v >= n then
      invalid_arg "Graph.Builder.add_edge: unknown endpoint";
    if w <= 0.0 then invalid_arg "Graph.Builder.add_edge: weight must be positive";
    Psp_util.Dyn_array.push b.e_src u;
    Psp_util.Dyn_array.push b.e_dst v;
    Psp_util.Dyn_array.push b.e_w w

  let add_undirected b u v w =
    add_edge b u v w;
    add_edge b v u w

  let freeze b =
    let n = node_count b in
    let m = Psp_util.Dyn_array.length b.e_src in
    let srcs = Psp_util.Dyn_array.to_array b.e_src in
    let dsts = Psp_util.Dyn_array.to_array b.e_dst in
    let ws = Psp_util.Dyn_array.to_array b.e_w in
    (* counting sort of edges by source to build CSR; edge ids follow
       CSR order so out-edges of a node are contiguous *)
    let row = Array.make (n + 1) 0 in
    Array.iter (fun u -> row.(u + 1) <- row.(u + 1) + 1) srcs;
    for i = 1 to n do
      row.(i) <- row.(i) + row.(i - 1)
    done;
    let cursor = Array.copy row in
    let dst = Array.make m 0 and src = Array.make m 0 and weight = Array.make m 0.0 in
    for e = 0 to m - 1 do
      let slot = cursor.(srcs.(e)) in
      cursor.(srcs.(e)) <- slot + 1;
      src.(slot) <- srcs.(e);
      dst.(slot) <- dsts.(e);
      weight.(slot) <- ws.(e)
    done;
    { xs = Psp_util.Dyn_array.to_array b.xs;
      ys = Psp_util.Dyn_array.to_array b.ys;
      row;
      g_dst = dst;
      g_src = src;
      g_w = weight }
end

let node_count t = Array.length t.xs
let edge_count t = Array.length t.g_dst

let check_node t v =
  if v < 0 || v >= node_count t then invalid_arg "Graph: node out of range"
  [@@leak_ok
    "single-compare bounds guard; out-of-range node ids abort the protocol \
     with a constant message, and aborts are public by design"]

let x t v =
  check_node t v;
  t.xs.(v)

let y t v =
  check_node t v;
  t.ys.(v)

let coords t v = (x t v, y t v)

let out_degree t v =
  check_node t v;
  t.row.(v + 1) - t.row.(v)

let iter_out t v f =
  check_node t v;
  for e = t.row.(v) to t.row.(v + 1) - 1 do
    f { src = v; dst = t.g_dst.(e); weight = t.g_w.(e); id = e }
  done

let out_start t v = t.row.(v)
let edge_dst t e = t.g_dst.(e)
let edge_weight t e = t.g_w.(e)
let csr t = (Array.copy t.row, Array.copy t.g_dst, Array.copy t.g_w)

let fold_out t v f init =
  let acc = ref init in
  iter_out t v (fun e -> acc := f !acc e);
  !acc

let edge t e =
  if e < 0 || e >= edge_count t then invalid_arg "Graph.edge: id out of range";
  { src = t.g_src.(e); dst = t.g_dst.(e); weight = t.g_w.(e); id = e }

let iter_edges t f =
  for e = 0 to edge_count t - 1 do
    f { src = t.g_src.(e); dst = t.g_dst.(e); weight = t.g_w.(e); id = e }
  done

let euclidean t u v =
  let dx = x t u -. x t v and dy = y t u -. y t v in
  sqrt ((dx *. dx) +. (dy *. dy))

let min_weight_per_distance t =
  let best = ref infinity in
  iter_edges t (fun e ->
      let d = euclidean t e.src e.dst in
      if d > 1e-12 then best := Float.min !best (e.weight /. d));
  if !best = infinity then 1.0 else !best

let bounding_box t =
  if node_count t = 0 then invalid_arg "Graph.bounding_box: empty graph";
  let min_x = ref t.xs.(0) and max_x = ref t.xs.(0) in
  let min_y = ref t.ys.(0) and max_y = ref t.ys.(0) in
  for v = 1 to node_count t - 1 do
    min_x := Float.min !min_x t.xs.(v);
    max_x := Float.max !max_x t.xs.(v);
    min_y := Float.min !min_y t.ys.(v);
    max_y := Float.max !max_y t.ys.(v)
  done;
  (!min_x, !min_y, !max_x, !max_y)

let reverse t =
  let n = node_count t and m = edge_count t in
  let row = Array.make (n + 1) 0 in
  Array.iter (fun v -> row.(v + 1) <- row.(v + 1) + 1) t.g_dst;
  for i = 1 to n do
    row.(i) <- row.(i) + row.(i - 1)
  done;
  let cursor = Array.copy row in
  let dst = Array.make m 0 and src = Array.make m 0 and weight = Array.make m 0.0 in
  let forward = Array.make m 0 in
  for e = 0 to m - 1 do
    let slot = cursor.(t.g_dst.(e)) in
    cursor.(t.g_dst.(e)) <- slot + 1;
    src.(slot) <- t.g_dst.(e);
    dst.(slot) <- t.g_src.(e);
    weight.(slot) <- t.g_w.(e);
    forward.(slot) <- e
  done;
  ({ xs = Array.copy t.xs; ys = Array.copy t.ys; row; g_dst = dst; g_src = src; g_w = weight },
   forward)
