module E = Psp_index.Encoding
module Heap = Psp_util.Min_heap

(* The client-side accumulation of downloaded network data.  Everything
   here is client-local: no function issues a fetch, so nothing in this
   module can touch the adversary's view.

   Nodes live on dense local ids, handed out in order of first
   appearance (as a record or as an edge endpoint) by an open-addressed
   int table; every per-node and per-edge field is a flat array indexed
   by them.  A node's out-edges form a linked list threaded through the
   edge arrays in delivery order, which is the order the solver relaxes
   them in.

   Clearing is O(1): a table slot is live only while its stamp equals
   the store's generation, and the counters drop to zero.  A local id's
   fields are set when the id is handed out, and an edge's when it is
   appended, so nothing from before a clear is ever read. *)

let no_id = -1

type t = {
  (* global -> local: linear probing; a slot is live iff its stamp is [gen] *)
  mutable slot_global : int array;
  mutable slot_local : int array;
  mutable slot_gen : int array;
  mutable gen : int;
  mutable mask : int;
  mutable shift : int;  (* 63 - log2 of the slot count *)
  (* per local id *)
  mutable nodes : int;
  mutable global : int array;
  mutable region : int array;  (* filed under; [no_id] until filed: the filed mark *)
  mutable xs : float array;
  mutable ys : float array;
  mutable first_edge : int array;
  mutable last_edge : int array;
  mutable to_anchor : float array;  (* [anchors] per local id *)
  mutable from_anchor : float array;
  (* local ids in filing order *)
  mutable filed : int;
  mutable filed_ids : int array;
  (* per edge, in delivery order *)
  mutable edges : int;
  mutable edge_dst : int array;
  mutable edge_weight : float array;
  mutable edge_next : int array;
  mutable edge_region : int array;  (* with region ids only *)
  mutable edge_flags : Bytes.t;  (* [flag_bytes] per edge, with flags only *)
  (* the extras the filed regions carry, fixed by the first filing *)
  mutable anchors : int;
  mutable region_ids : bool;
  mutable flag_bits : int;
  mutable flag_bytes : int;
  (* solver scratch over local ids *)
  mutable dist : float array;
  mutable parent : int array;
  mutable closed : Bytes.t;
  heap : Heap.t;
  mutable released : bool;
}

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2)

let initial_nodes = 256

let create () =
  let nodes = initial_nodes in
  let slots = 2 * nodes and edges = 3 * nodes in
  { slot_global = Array.make slots 0;
    slot_local = Array.make slots no_id;
    slot_gen = Array.make slots (-1);
    gen = 0;
    mask = slots - 1;
    shift = 63 - log2 slots;
    nodes = 0;
    global = Array.make nodes 0;
    region = Array.make nodes no_id;
    xs = Array.make nodes 0.0;
    ys = Array.make nodes 0.0;
    first_edge = Array.make nodes no_id;
    last_edge = Array.make nodes no_id;
    to_anchor = [||];
    from_anchor = [||];
    filed = 0;
    filed_ids = Array.make nodes 0;
    edges = 0;
    edge_dst = Array.make edges 0;
    edge_weight = Array.make edges 0.0;
    edge_next = Array.make edges no_id;
    edge_region = [||];
    edge_flags = Bytes.empty;
    anchors = 0;
    region_ids = false;
    flag_bits = 0;
    flag_bytes = 0;
    dist = [||];
    parent = [||];
    closed = Bytes.empty;
    heap = Heap.create ~capacity:nodes ();
    released = false }

let clear st =
  st.gen <- st.gen + 1;
  st.nodes <- 0;
  st.filed <- 0;
  st.edges <- 0;
  st.anchors <- 0;
  st.region_ids <- false;
  st.flag_bits <- 0;
  st.flag_bytes <- 0;
  Heap.clear st.heap

(* Each domain's free list: stores handed back by [release], cleared. *)
let arena : t list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let acquire () =
  let free = Domain.DLS.get arena in
  match !free with
  | st :: rest ->
      free := rest;
      st.released <- false;
      st
  | [] -> create ()
  [@@leak_ok
    "a client-local free list, one per domain: which store a query files into \
     is invisible to the server"]

let release st =
  if st.released then invalid_arg "Store.release: store already released";
  clear st;
  st.released <- true;
  let free = Domain.DLS.get arena in
  free := st :: !free
  [@@leak_ok
    "client-local hand-back after the path is built; the double-release guard \
     fails with a constant message"]

(* Fibonacci hashing: the top bits of the product pick the home slot. *)
let home st v = (v * 0x4F1BBCDCBFA53E0B) lsr st.shift

let rec probe st v i =
  if st.slot_gen.(i) <> st.gen || st.slot_global.(i) = v then i
  else probe st v ((i + 1) land st.mask)

let local st v =
  let i = probe st v (home st v) in
  if st.slot_gen.(i) = st.gen then st.slot_local.(i) else no_id
  [@@leak_ok
    "client-local probe of the downloaded-node table; the server cannot observe \
     the probe sequence or its branches"]

let grow_table st =
  let old_global = st.slot_global and old_local = st.slot_local
  and old_gen = st.slot_gen in
  let slots = 2 * Array.length old_local in
  st.slot_global <- Array.make slots 0;
  st.slot_local <- Array.make slots no_id;
  st.slot_gen <- Array.make slots (-1);
  st.mask <- slots - 1;
  st.shift <- st.shift - 1;
  Array.iteri
    (fun i g ->
      if g = st.gen then begin
        let j = probe st old_global.(i) (home st old_global.(i)) in
        st.slot_global.(j) <- old_global.(i);
        st.slot_local.(j) <- old_local.(i);
        st.slot_gen.(j) <- st.gen
      end)
    old_gen

(* [a] with room for at least [n] cells, its contents kept. *)
let grow a n fill =
  let len = Array.length a in
  if len >= n then a
  else begin
    let b = Array.make (max n (2 * len)) fill in
    Array.blit a 0 b 0 len;
    b
  end

let grow_bytes b n =
  let len = Bytes.length b in
  if len >= n then b
  else begin
    let c = Bytes.make (max n (2 * len)) '\000' in
    Bytes.blit b 0 c 0 len;
    c
  end

(* The local id of global node [v], handed out on first sight with its
   fields reset. *)
let intern st v =
  let i = probe st v (home st v) in
  if st.slot_gen.(i) = st.gen then st.slot_local.(i)
  else begin
    let l = st.nodes in
    if l = Array.length st.global then begin
      let n = l + 1 in
      st.global <- grow st.global n 0;
      st.region <- grow st.region n no_id;
      st.xs <- grow st.xs n 0.0;
      st.ys <- grow st.ys n 0.0;
      st.first_edge <- grow st.first_edge n no_id;
      st.last_edge <- grow st.last_edge n no_id;
      st.filed_ids <- grow st.filed_ids n 0
    end;
    st.global.(l) <- v;
    st.region.(l) <- no_id;
    st.first_edge.(l) <- no_id;
    st.last_edge.(l) <- no_id;
    st.nodes <- l + 1;
    st.slot_global.(i) <- v;
    st.slot_local.(i) <- l;
    st.slot_gen.(i) <- st.gen;
    if 2 * st.nodes > Array.length st.slot_local then grow_table st;
    l
  end

(* Append edge u -> v and return its index; its region and flags are
   the caller's to set when the store keeps them. *)
let add_edge st u v w =
  let e = st.edges in
  if e = Array.length st.edge_dst then begin
    st.edge_dst <- grow st.edge_dst (e + 1) 0;
    st.edge_weight <- grow st.edge_weight (e + 1) 0.0;
    st.edge_next <- grow st.edge_next (e + 1) no_id
  end;
  if st.region_ids then st.edge_region <- grow st.edge_region (e + 1) no_id;
  if st.flag_bytes > 0 then
    st.edge_flags <- grow_bytes st.edge_flags ((e + 1) * st.flag_bytes);
  st.edge_dst.(e) <- v;
  st.edge_weight.(e) <- w;
  st.edge_next.(e) <- no_id;
  st.edges <- e + 1;
  (match st.last_edge.(u) with
  | -1 -> st.first_edge.(u) <- e
  | last -> st.edge_next.(last) <- e);
  st.last_edge.(u) <- e;
  e

(* The first filing after a clear fixes the extras; edges a triple
   brought in before it carry none. *)
let configure st (config : E.config) =
  let fb = Psp_util.Bitset.bytes_for config.E.flag_bits in
  if st.filed = 0 then begin
    st.anchors <- config.E.landmark_anchors;
    st.region_ids <- config.E.with_region_ids;
    st.flag_bits <- config.E.flag_bits;
    st.flag_bytes <- fb;
    if st.region_ids then begin
      st.edge_region <- grow st.edge_region st.edges no_id;
      Array.fill st.edge_region 0 st.edges no_id
    end;
    if fb > 0 then begin
      st.edge_flags <- grow_bytes st.edge_flags (st.edges * fb);
      Bytes.fill st.edge_flags 0 (st.edges * fb) '\000'
    end
  end
  else if
    config.E.landmark_anchors <> st.anchors
    || config.E.with_region_ids <> st.region_ids
    || config.E.flag_bits <> st.flag_bits
  then invalid_arg "Store.add_region: config extras differ from the store's"

let file_node st u region x y ~to_anchor ~from_anchor =
  st.region.(u) <- region;
  st.xs.(u) <- x;
  st.ys.(u) <- y;
  let a = st.anchors in
  if a > 0 then begin
    let n = Array.length st.global * a in
    st.to_anchor <- grow st.to_anchor n 0.0;
    st.from_anchor <- grow st.from_anchor n 0.0;
    Array.blit to_anchor 0 st.to_anchor (u * a) a;
    Array.blit from_anchor 0 st.from_anchor (u * a) a
  end;
  st.filed_ids.(st.filed) <- u;
  st.filed <- st.filed + 1

(* The fold's accumulator is the local id of the record being filed, or
   [no_id] while the edges of a duplicate go by. *)
let add_region st config region blob =
  if region < 0 then invalid_arg "Store.add_region: negative region";
  configure st config;
  ignore
    (E.fold_region config blob
       ~node:(fun _ ~id ~x ~y ~to_anchor ~from_anchor ~degree:_ ->
         let u = intern st id in
         if st.region.(u) <> no_id then no_id
         else begin
           file_node st u region x y ~to_anchor ~from_anchor;
           u
         end)
       ~edge:(fun u ~target ~weight ~target_region ~flags ->
         if u <> no_id then begin
           let e = add_edge st u (intern st target) weight in
           if st.region_ids then st.edge_region.(e) <- target_region;
           if st.flag_bytes > 0 then
             Bytes.blit flags 0 st.edge_flags (e * st.flag_bytes) st.flag_bytes
         end;
         u)
       no_id)
  [@@leak_ok
    "client-local filing of an already-fetched region; duplicate checks, table \
     growth and edge threading are invisible to the server"]

let add_triple st (t : E.edge_triple) =
  let u = intern st t.E.e_src in
  let e = add_edge st u (intern st t.E.e_dst) t.E.e_weight in
  if st.region_ids then st.edge_region.(e) <- no_id;
  if st.flag_bytes > 0 then Bytes.fill st.edge_flags (e * st.flag_bytes) st.flag_bytes '\000'
  [@@leak_ok
    "client-local append of an already-fetched edge; table growth is invisible \
     to the server"]

let has_record st v =
  match local st v with -1 -> false | l -> st.region.(l) <> no_id
  [@@leak_ok "client-local lookup in the downloaded-node table"]

let filed_local st v =
  match local st v with
  | -1 -> invalid_arg "Store: node not filed"
  | l -> if st.region.(l) = no_id then invalid_arg "Store: node not filed" else l
  [@@leak_ok "client-local lookup in the downloaded-node table"]

let x st v = st.xs.(filed_local st v)
let y st v = st.ys.(filed_local st v)

let landmarks st v ~to_anchor ~from_anchor =
  let l = filed_local st v and a = st.anchors in
  Array.blit st.to_anchor (l * a) to_anchor 0 a;
  Array.blit st.from_anchor (l * a) from_anchor 0 a

let has_flags st = st.flag_bits > 0

let iter_out st v ~flag f =
  if st.flag_bits > 0 && (flag < 0 || flag >= st.flag_bits) then
    invalid_arg "Store.iter_out: flag outside the flag bits";
  match local st v with
  | -1 -> ()
  | u ->
      let e = ref st.first_edge.(u) in
      while !e <> no_id do
        let i = !e in
        let flagged =
          st.flag_bytes > 0
          && Psp_util.Bitset.mem_bytes st.edge_flags ~pos:(i * st.flag_bytes) flag
        in
        f ~target:st.global.(st.edge_dst.(i)) ~weight:st.edge_weight.(i)
          ~target_region:(if st.region_ids then st.edge_region.(i) else no_id)
          ~flagged;
        e := st.edge_next.(i)
      done
  [@@leak_ok
    "client-local walk over an already-downloaded adjacency list; the server \
     cannot observe this loop or its branches"]

(* Scans the filed nodes newest first and keeps the first strict minimum
   in the region, so equidistant nodes resolve to the one filed last. *)
let snap st region ~x ~y =
  let best = ref no_id and best_d = ref infinity in
  for i = st.filed - 1 downto 0 do
    let l = st.filed_ids.(i) in
    if st.region.(l) = region then begin
      if !best = no_id then best := l;
      let dx = st.xs.(l) -. x and dy = st.ys.(l) -. y in
      let d = (dx *. dx) +. (dy *. dy) in
      if d < !best_d then begin
        best := l;
        best_d := d
      end
    end
  done;
  if !best = no_id then failwith "Client: located region holds no nodes";
  st.global.(!best)
  [@@leak_ok
    "client-local nearest-node scan over already-downloaded region records; \
     the server cannot observe this loop or its branches"]

(* Dijkstra over local ids.  [parent] doubles as the reached mark:
   [unreached] until a tentative distance is set, [no_id] at the source.
   Every distance update pushes, and only strictly smaller ones follow
   the first, so the first pop of a node carries exactly [dist] of it:
   the loop reads [dist] instead of the popped priority. *)
let unreached = -2

let dijkstra st ~source ~target =
  if source = target then Some ([ source ], 0.0)
  else
    match (local st source, local st target) with
    | -1, _ | _, -1 -> None
    | s, t ->
        let n = st.nodes in
        if Array.length st.parent < n then begin
          let cap = Array.length st.global in
          st.dist <- Array.make cap infinity;
          st.parent <- Array.make cap unreached;
          st.closed <- Bytes.make cap '\000'
        end;
        let dist = st.dist and parent = st.parent and closed = st.closed
        and heap = st.heap in
        Array.fill parent 0 n unreached;
        Bytes.fill closed 0 n '\000';
        Heap.clear heap;
        dist.(s) <- 0.0;
        parent.(s) <- no_id;
        Heap.push heap ~priority:0.0 s;
        let found = ref false in
        while (not !found) && not (Heap.is_empty heap) do
          let u = Heap.pop_min heap in
          if Bytes.get closed u = '\000' then begin
            Bytes.set closed u '\001';
            if u = t then found := true
            else begin
              let d = dist.(u) in
              let e = ref st.first_edge.(u) in
              while !e <> no_id do
                let v = st.edge_dst.(!e) in
                let nd = d +. st.edge_weight.(!e) in
                if parent.(v) = unreached || nd < dist.(v) then begin
                  dist.(v) <- nd;
                  parent.(v) <- u;
                  Heap.push heap ~priority:nd v
                end;
                e := st.edge_next.(!e)
              done
            end
          end
        done;
        if not !found then None
        else begin
          let rec build v acc =
            match parent.(v) with
            | -1 -> st.global.(v) :: acc
            | p -> build p (st.global.(v) :: acc)
          in
          Some (build t [], dist.(t))
        end
  [@@leak_ok
    "client-local Dijkstra over the already-downloaded adjacency; timing, \
     allocation and heap growth here are invisible to the server"]
