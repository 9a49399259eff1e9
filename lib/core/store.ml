module E = Psp_index.Encoding

(* The client-side accumulation of downloaded network data.  Everything
   here is client-local: no function issues a fetch, so nothing in this
   module can touch the adversary's view.

   Nodes live on dense local ids, handed out in order of first
   appearance (as a record or as an edge endpoint) by an open-addressed
   int table; every per-node and per-edge field is a flat array indexed
   by them.  A node's out-edges form a linked list threaded through the
   edge arrays in delivery order, which is the order the solver relaxes
   them in. *)

let no_id = -1

type t = {
  (* global -> local: linear probing, [slot_local = no_id] marks a free slot *)
  mutable slot_global : int array;
  mutable slot_local : int array;
  mutable mask : int;
  mutable shift : int;  (* 63 - log2 of the slot count *)
  (* per local id *)
  mutable nodes : int;
  mutable global : int array;
  mutable records : E.node_record option array;
  mutable first_edge : int array;
  mutable last_edge : int array;
  (* per edge, in delivery order *)
  mutable edges : int;
  mutable edge_dst : int array;
  mutable edge_weight : float array;
  mutable edge_next : int array;
  (* region -> local ids of its filed records, one chunk per filing call,
     newest chunk first *)
  by_region : (int, int array list) Hashtbl.t;
}

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2)

let create ?(nodes = 256) () =
  let nodes = max 16 nodes in
  (* the smallest power of two >= 2 * nodes: the table stays at most half full *)
  let slots = 1 lsl (1 + log2 ((2 * nodes) - 1)) and edges = 3 * nodes in
  { slot_global = Array.make slots 0;
    slot_local = Array.make slots no_id;
    mask = slots - 1;
    shift = 63 - log2 slots;
    nodes = 0;
    global = Array.make nodes 0;
    records = Array.make nodes None;
    first_edge = Array.make nodes no_id;
    last_edge = Array.make nodes no_id;
    edges = 0;
    edge_dst = Array.make edges 0;
    edge_weight = Array.make edges 0.0;
    edge_next = Array.make edges no_id;
    by_region = Hashtbl.create 8 }

(* Fibonacci hashing: the top bits of the product pick the home slot. *)
let home st v = (v * 0x4F1BBCDCBFA53E0B) lsr st.shift

let rec probe st v i =
  let l = st.slot_local.(i) in
  if l = no_id || st.slot_global.(i) = v then i else probe st v ((i + 1) land st.mask)

let local st v =
  let i = probe st v (home st v) in
  st.slot_local.(i)

let grow_table st =
  let old_global = st.slot_global and old_local = st.slot_local in
  let slots = 2 * Array.length old_local in
  st.slot_global <- Array.make slots 0;
  st.slot_local <- Array.make slots no_id;
  st.mask <- slots - 1;
  st.shift <- st.shift - 1;
  Array.iteri
    (fun i l ->
      if l <> no_id then begin
        let j = probe st old_global.(i) (home st old_global.(i)) in
        st.slot_global.(j) <- old_global.(i);
        st.slot_local.(j) <- l
      end)
    old_local

(* Every array starts with at least 16 cells, so doubling always grows it. *)
let extend a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* The local id of global node [v], handed out on first sight. *)
let intern st v =
  let i = probe st v (home st v) in
  let l = st.slot_local.(i) in
  if l <> no_id then l
  else begin
    let l = st.nodes in
    if l = Array.length st.global then begin
      st.global <- extend st.global 0;
      st.records <- extend st.records None;
      st.first_edge <- extend st.first_edge no_id;
      st.last_edge <- extend st.last_edge no_id
    end;
    st.global.(l) <- v;
    st.nodes <- l + 1;
    st.slot_global.(i) <- v;
    st.slot_local.(i) <- l;
    if 2 * st.nodes > Array.length st.slot_local then grow_table st;
    l
  end

let add_edge st u v w =
  let e = st.edges in
  if e = Array.length st.edge_dst then begin
    st.edge_dst <- extend st.edge_dst 0;
    st.edge_weight <- extend st.edge_weight 0.0;
    st.edge_next <- extend st.edge_next no_id
  end;
  st.edge_dst.(e) <- v;
  st.edge_weight.(e) <- w;
  st.edge_next.(e) <- no_id;
  st.edges <- e + 1;
  (match st.last_edge.(u) with
  | -1 -> st.first_edge.(u) <- e
  | last -> st.edge_next.(last) <- e);
  st.last_edge.(u) <- e

let record st v =
  match local st v with -1 -> None | l -> st.records.(l)
  [@@leak_ok
    "client-local probe of the downloaded-node table; the server cannot observe \
     the probe sequence or its branches"]

let has_record st v = Option.is_some (record st v)

let rec add_edges st u = function
  | [] -> ()
  | (a : E.adj) :: rest ->
      add_edge st u (intern st a.E.target) a.E.weight;
      add_edges st u rest

let add_region st region records =
  let filed = Array.make (List.length records) no_id in
  let count =
    List.fold_left
      (fun n (r : E.node_record) ->
        let u = intern st r.E.id in
        if Option.is_some st.records.(u) then n
        else begin
          st.records.(u) <- Some r;
          add_edges st u r.E.adj;
          filed.(n) <- u;
          n + 1
        end)
      0 records
  in
  if count > 0 then
    Hashtbl.replace st.by_region region
      (Array.sub filed 0 count
      :: Option.value ~default:[] (Hashtbl.find_opt st.by_region region))
  [@@leak_ok
    "client-local filing of an already-fetched region; duplicate checks, table \
     growth and edge threading are invisible to the server"]

let add_triple st (t : E.edge_triple) =
  let u = intern st t.E.e_src in
  add_edge st u (intern st t.E.e_dst) t.E.e_weight
  [@@leak_ok
    "client-local append of an already-fetched edge; table growth is invisible \
     to the server"]

(* Scans the region's nodes newest first and keeps the first strict
   minimum, so equidistant nodes resolve to the one filed last. *)
let snap st region ~x ~y =
  match Hashtbl.find_opt st.by_region region with
  | None | Some [] -> failwith "Client: located region holds no nodes"
  | Some (newest :: _ as chunks) ->
      let best = ref newest.(Array.length newest - 1) and best_d = ref infinity in
      List.iter
        (fun chunk ->
          for i = Array.length chunk - 1 downto 0 do
            let r = Option.get st.records.(chunk.(i)) in
            let dx = r.E.x -. x and dy = r.E.y -. y in
            let d = (dx *. dx) +. (dy *. dy) in
            if d < !best_d then begin
              best := chunk.(i);
              best_d := d
            end
          done)
        chunks;
      st.global.(!best)
  [@@leak_ok
    "client-local nearest-node scan over already-downloaded region records; \
     the server cannot observe this loop or its branches"]

(* Dijkstra over local ids.  [parent] doubles as the reached mark:
   [unreached] until a tentative distance is set, [no_id] at the source. *)
let unreached = -2

let dijkstra st ~source ~target =
  if source = target then Some ([ source ], 0.0)
  else
    match (local st source, local st target) with
    | -1, _ | _, -1 -> None
    | s, t ->
        let n = st.nodes in
        let dist = Array.make n infinity and parent = Array.make n unreached in
        let closed = Bytes.make n '\000' in
        let heap = Psp_util.Min_heap.create ~capacity:n () in
        dist.(s) <- 0.0;
        parent.(s) <- no_id;
        Psp_util.Min_heap.push heap ~priority:0.0 s;
        let found = ref false in
        while (not !found) && not (Psp_util.Min_heap.is_empty heap) do
          match Psp_util.Min_heap.pop heap with
          | None -> ()
          | Some (d, u) ->
              if Bytes.get closed u = '\000' then begin
                Bytes.set closed u '\001';
                if u = t then found := true
                else begin
                  let e = ref st.first_edge.(u) in
                  while !e <> no_id do
                    let v = st.edge_dst.(!e) in
                    let nd = d +. st.edge_weight.(!e) in
                    if parent.(v) = unreached || nd < dist.(v) then begin
                      dist.(v) <- nd;
                      parent.(v) <- u;
                      Psp_util.Min_heap.push heap ~priority:nd v
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
