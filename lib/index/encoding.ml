module G = Psp_graph.Graph
module W = Psp_util.Byte_io.Writer
module R = Psp_util.Byte_io.Reader

type config = {
  with_region_ids : bool;
  landmark_anchors : int;
  flag_bits : int;
  quantize : float;
}

let plain_config =
  { with_region_ids = false; landmark_anchors = 0; flag_bits = 0; quantize = 0.0 }

(* Multiplicative weight grid: index k represents (1+eps)^(k - bias);
   weights round *up*, so quantized shortest paths never undercost and
   the found path's true cost is within (1+eps) of optimal. *)
let grid_bias = 16384

let grid_index ~epsilon w =
  if w <= 0.0 then invalid_arg "Encoding.grid_index: weight must be positive";
  let k = int_of_float (ceil (log w /. log (1.0 +. epsilon))) + grid_bias in
  max 0 (min 65535 k)

let grid_value ~epsilon k = (1.0 +. epsilon) ** float_of_int (k - grid_bias) [@@inline]

let quantize_up ~epsilon w =
  if epsilon <= 0.0 then w else grid_value ~epsilon (grid_index ~epsilon w)

type adj = {
  target : int;
  weight : float;
  target_region : int;
  flags : Psp_util.Bitset.t option;
}

type node_record = {
  id : int;
  x : float;
  y : float;
  adj : adj list;
  landmark : (float array * float array) option;
}

let f32 w v = W.u32 w (Int32.to_int (Int32.bits_of_float v) land 0xFFFFFFFF)

let read_f32 r =
  let bits = R.u32 r in
  (* sign-extend back into an Int32 *)
  Int32.float_of_bits (Int32.of_int bits)

let flag_bytes = Psp_util.Bitset.bytes_for

let weight_bytes config w =
  if config.quantize <= 0.0 then 4
  else Psp_util.Byte_io.varint_size (grid_index ~epsilon:config.quantize w)

let write_weight config w v =
  if config.quantize <= 0.0 then f32 w v
  else W.varint w (grid_index ~epsilon:config.quantize v)

let node_bytes config g v =
  let base = Psp_util.Byte_io.varint_size v + 8 (* two f32 coords *) + 1 in
  let per_edge e =
    Psp_util.Byte_io.varint_size e.G.dst
    + weight_bytes config e.G.weight
    + (if config.with_region_ids then 2 else 0)
    + flag_bytes config.flag_bits
  in
  let adj = G.fold_out g v (fun acc e -> acc + per_edge e) 0 in
  base + adj + (2 * 4 * config.landmark_anchors)

let encode_node config g ?region_of ?landmark ?flags w v =
  W.varint w v;
  f32 w (G.x g v);
  f32 w (G.y g v);
  (match landmark with
  | None ->
      if config.landmark_anchors > 0 then
        invalid_arg "Encoding.encode_node: landmarks requested but absent"
  | Some lm ->
      if config.landmark_anchors = 0 then
        invalid_arg "Encoding.encode_node: landmarks given but not requested";
      if Psp_graph.Landmark.anchor_count lm <> config.landmark_anchors then
        invalid_arg "Encoding.encode_node: landmark anchor count differs from the config";
      for a = 0 to config.landmark_anchors - 1 do
        f32 w (Psp_graph.Landmark.to_anchor lm a v);
        f32 w (Psp_graph.Landmark.from_anchor lm a v)
      done);
  W.varint w (G.out_degree g v);
  G.iter_out g v (fun e ->
      W.varint w e.G.dst;
      write_weight config w e.G.weight;
      if config.with_region_ids then
        W.u16 w
          (match region_of with
          | Some regions -> regions.(e.G.dst)
          | None -> invalid_arg "Encoding.encode_node: region ids requested but absent");
      if config.flag_bits > 0 then
        match flags with
        | Some flag_of -> W.bytes w (Psp_util.Bitset.to_bytes (flag_of e.G.id))
        | None -> invalid_arg "Encoding.encode_node: flags requested but absent")

let encode_region config g ?region_of ?landmark ?flags nodes =
  let w = W.create ~capacity:4096 () in
  W.varint w (Array.length nodes);
  Array.iter (fun v -> encode_node config g ?region_of ?landmark ?flags w v) nodes;
  W.contents w

(* The one reader of region blobs.  A cursor over the blob reads each
   field in place: floats straight from their four bytes into the
   buffer's float arrays, no intermediate records.  Every read is
   bounds-checked and a short blob raises [Byte_io.Reader.Underflow],
   like every other decoder. *)

type cursor = { buf : bytes; mutable at : int }

let take c n =
  let p = c.at in
  if p > Bytes.length c.buf - n then raise R.Underflow;
  c.at <- p + n;
  p
  [@@inline]

let c_u8 c = Char.code (Bytes.unsafe_get c.buf (take c 1)) [@@inline]
let c_u16 c = Bytes.get_uint16_le c.buf (take c 2)

(* A float returned by a function that is not inlined comes back boxed,
   so the reader reads each f32 in place, at the offset [take] hands
   out. *)
let f32_at b p = Int32.float_of_bits (Bytes.get_int32_le b p) [@@inline]

(* LEB128, as [Byte_io.Reader.varint] *)
let rec c_varint_from c shift acc =
  let b = c_u8 c in
  let acc = acc lor ((b land 0x7F) lsl shift) in
  if b land 0x80 = 0 then acc else c_varint_from c (shift + 7) acc

(* ids and degrees mostly fit one or two bytes: those are read inline *)
let c_varint c =
  let b = c_u8 c in
  if b < 0x80 then b
  else begin
    let b2 = c_u8 c in
    let acc = (b land 0x7F) lor ((b2 land 0x7F) lsl 7) in
    if b2 < 0x80 then acc else c_varint_from c 14 acc
  end
  [@@inline]

(* The fewest bytes a node record or an edge entry can take, so a count
   is checked against what is left before anything runs that many times
   or is sized by it. *)
let min_node_bytes config = 1 + 8 + (8 * config.landmark_anchors) + 1

let min_edge_bytes config =
  1
  + (if config.quantize <= 0.0 then 4 else 1)
  + (if config.with_region_ids then 2 else 0)
  + flag_bytes config.flag_bits

let check_count c what count ~each =
  if count < 0 || count > (Bytes.length c.buf - c.at) / each then
    invalid_arg ("Encoding.read_region: " ^ what ^ " exceeds the blob")

type region = {
  mutable nodes : int;
  mutable ids : int array;
  mutable xs : float array;
  mutable ys : float array;
  mutable degrees : int array;
  mutable to_anchor : float array;
  mutable from_anchor : float array;
  mutable edges : int;
  mutable targets : int array;
  mutable weights : float array;
  mutable target_regions : int array;
  mutable flags : Bytes.t;
}

let region_buffer () =
  { nodes = 0;
    ids = [||];
    xs = [||];
    ys = [||];
    degrees = [||];
    to_anchor = [||];
    from_anchor = [||];
    edges = 0;
    targets = [||];
    weights = [||];
    target_regions = [||];
    flags = Bytes.empty }

(* [a] with room for at least [n] cells; the old contents are not kept. *)
let room a n fill =
  if Array.length a >= n then a else Array.make (max n (2 * Array.length a)) fill

let read_region config r blob =
  r.nodes <- 0;
  r.edges <- 0;
  let c = { buf = blob; at = 0 } in
  let count = c_varint c in
  check_count c "node count" count ~each:(min_node_bytes config);
  let anchors = config.landmark_anchors and fbytes = flag_bytes config.flag_bits in
  let region_ids = config.with_region_ids and quantize = config.quantize in
  (* every edge takes at least [min_edge_bytes], so the bytes left bound
     the edge total: the buffer is sized once, before anything is read *)
  let max_edges = (Bytes.length blob - c.at) / min_edge_bytes config in
  r.ids <- room r.ids count 0;
  r.xs <- room r.xs count 0.0;
  r.ys <- room r.ys count 0.0;
  r.degrees <- room r.degrees count 0;
  r.to_anchor <- room r.to_anchor (count * anchors) 0.0;
  r.from_anchor <- room r.from_anchor (count * anchors) 0.0;
  r.targets <- room r.targets max_edges 0;
  r.weights <- room r.weights max_edges 0.0;
  if region_ids then r.target_regions <- room r.target_regions max_edges 0;
  if Bytes.length r.flags < max_edges * fbytes then
    r.flags <- Bytes.create (max (max_edges * fbytes) (2 * Bytes.length r.flags));
  let ids = r.ids and xs = r.xs and ys = r.ys and degrees = r.degrees in
  let to_anchor = r.to_anchor and from_anchor = r.from_anchor in
  let targets = r.targets and weights = r.weights in
  let target_regions = r.target_regions and flags = r.flags in
  let e = ref 0 in
  for i = 0 to count - 1 do
    ids.(i) <- c_varint c;
    xs.(i) <- f32_at blob (take c 4);
    ys.(i) <- f32_at blob (take c 4);
    for a = i * anchors to ((i + 1) * anchors) - 1 do
      to_anchor.(a) <- f32_at blob (take c 4);
      from_anchor.(a) <- f32_at blob (take c 4)
    done;
    let degree = c_varint c in
    check_count c "degree" degree ~each:(min_edge_bytes config);
    degrees.(i) <- degree;
    for j = !e to !e + degree - 1 do
      targets.(j) <- c_varint c;
      weights.(j) <-
        (if quantize <= 0.0 then f32_at blob (take c 4)
         else grid_value ~epsilon:quantize (c_varint c));
      if region_ids then target_regions.(j) <- c_u16 c;
      if fbytes > 0 then Bytes.blit blob (take c fbytes) flags (j * fbytes) fbytes
    done;
    e := !e + degree
  done;
  r.nodes <- count;
  r.edges <- !e

(* The reference decoder: records built from the same buffer. *)
let decode_region config blob =
  let r = region_buffer () in
  read_region config r blob;
  let anchors = config.landmark_anchors and fbytes = flag_bytes config.flag_bits in
  let records = ref [] and last = ref r.edges in
  for i = r.nodes - 1 downto 0 do
    let first = !last - r.degrees.(i) in
    let adj =
      List.init (!last - first) (fun k ->
          let j = first + k in
          { target = r.targets.(j);
            weight = r.weights.(j);
            target_region = (if config.with_region_ids then r.target_regions.(j) else -1);
            flags =
              (if fbytes = 0 then None
               else
                 Some
                   (Psp_util.Bitset.of_bytes config.flag_bits
                      (Bytes.sub r.flags (j * fbytes) fbytes))) })
    in
    let landmark =
      if anchors = 0 then None
      else
        let vector v = Array.sub v (i * anchors) anchors in
        Some (vector r.to_anchor, vector r.from_anchor)
    in
    records := { id = r.ids.(i); x = r.xs.(i); y = r.ys.(i); adj; landmark } :: !records;
    last := first
  done;
  !records

let lookup_entry_bytes = 10

(* Look-up entries are fixed-width on purpose: the client reads one at a
   secret-dependent offset, so a variable-length encoding (say, varints)
   would turn the entry's position into a function of its content. *)
let encode_lookup_entry ~page ~offset ~span =
  let w = W.create ~capacity:10 () in
  W.u32 w page;
  W.u32 w offset;
  W.u16 w span;
  W.contents w
  [@@oblivious]

let decode_lookup_entry blob ~pos:(pos [@secret]) =
  let r = R.of_bytes ~pos blob in
  let page = R.u32 r in
  let offset = R.u32 r in
  let span = R.u16 r in
  (page, offset, span)
  [@@oblivious]

let encode_region_ids w ids =
  let prev = ref 0 in
  Array.iter
    (fun id ->
      W.varint w (id - !prev);
      prev := id)
    ids

(* A count is checked against the bytes left before anything is sized by
   it: an element takes at least one byte, a triple at least three. *)
let check_elements r ~count ~each =
  if count < 0 || count > R.remaining r / each then
    invalid_arg "Encoding: element count exceeds the record"

let decode_region_ids r ~count =
  check_elements r ~count ~each:1;
  let prev = ref 0 in
  Array.init count (fun _ ->
      let id = !prev + R.varint r in
      prev := id;
      id)

type edge_triple = { e_src : int; e_dst : int; e_weight : float }

let encode_edge_triples ?(quantize = 0.0) w triples =
  Array.iter
    (fun t ->
      W.varint w t.e_src;
      W.varint w t.e_dst;
      if quantize <= 0.0 then f32 w t.e_weight
      else W.varint w (grid_index ~epsilon:quantize t.e_weight))
    triples

let decode_edge_triples ?(quantize = 0.0) r ~count =
  check_elements r ~count ~each:(if quantize <= 0.0 then 6 else 3);
  Array.init count (fun _ ->
      let e_src = R.varint r in
      let e_dst = R.varint r in
      let e_weight =
        if quantize <= 0.0 then read_f32 r else grid_value ~epsilon:quantize (R.varint r)
      in
      { e_src; e_dst; e_weight })

let triple_of_edge g id =
  let e = G.edge g id in
  { e_src = e.G.src; e_dst = e.G.dst; e_weight = e.G.weight }
