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

let grid_value ~epsilon k = (1.0 +. epsilon) ** float_of_int (k - grid_bias)

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
  | None -> ()
  | Some lm ->
      for a = 0 to Psp_graph.Landmark.anchor_count lm - 1 do
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
   field in place: floats straight from their four bytes, no
   intermediate records.  Every read is bounds-checked and a short blob
   raises [Byte_io.Reader.Underflow], like every other decoder. *)

type cursor = { buf : bytes; mutable at : int }

let take c n =
  let p = c.at in
  if p > Bytes.length c.buf - n then raise R.Underflow;
  c.at <- p + n;
  p

let c_u8 c = Char.code (Bytes.unsafe_get c.buf (take c 1))
let c_u16 c = Bytes.get_uint16_le c.buf (take c 2)
let c_f32 c = Int32.float_of_bits (Bytes.get_int32_le c.buf (take c 4))

(* LEB128, as [Byte_io.Reader.varint] *)
let rec c_varint_from c shift acc =
  let b = c_u8 c in
  let acc = acc lor ((b land 0x7F) lsl shift) in
  if b land 0x80 = 0 then acc else c_varint_from c (shift + 7) acc

let c_varint c = c_varint_from c 0 0

let c_weight config c =
  if config.quantize <= 0.0 then c_f32 c
  else grid_value ~epsilon:config.quantize (c_varint c)

(* The fewest bytes a node record or an edge entry can take, so a count
   is checked against what is left before anything runs that many times. *)
let min_node_bytes config = 1 + 8 + (8 * config.landmark_anchors) + 1

let min_edge_bytes config =
  1
  + (if config.quantize <= 0.0 then 4 else 1)
  + (if config.with_region_ids then 2 else 0)
  + flag_bytes config.flag_bits

let check_count c what count ~each =
  if count < 0 || count > (Bytes.length c.buf - c.at) / each then
    invalid_arg ("Encoding.fold_region: " ^ what ^ " exceeds the blob")

let fold_region config blob ~node ~edge init =
  let c = { buf = blob; at = 0 } in
  let count = c_varint c in
  check_count c "node count" count ~each:(min_node_bytes config);
  let anchors = config.landmark_anchors and fbytes = flag_bytes config.flag_bits in
  let to_anchor = Array.make anchors 0.0 and from_anchor = Array.make anchors 0.0 in
  let flags = Bytes.create fbytes in
  let rec edges acc k =
    if k = 0 then acc
    else begin
      let target = c_varint c in
      let weight = c_weight config c in
      let target_region = if config.with_region_ids then c_u16 c else -1 in
      if fbytes > 0 then Bytes.blit c.buf (take c fbytes) flags 0 fbytes;
      edges (edge acc ~target ~weight ~target_region ~flags) (k - 1)
    end
  in
  let rec nodes acc k =
    if k = 0 then acc
    else begin
      let id = c_varint c in
      let x = c_f32 c in
      let y = c_f32 c in
      for a = 0 to anchors - 1 do
        to_anchor.(a) <- c_f32 c;
        from_anchor.(a) <- c_f32 c
      done;
      let degree = c_varint c in
      check_count c "degree" degree ~each:(min_edge_bytes config);
      let acc = node acc ~id ~x ~y ~to_anchor ~from_anchor ~degree in
      nodes (edges acc degree) (k - 1)
    end
  in
  nodes init count

(* The reference decoder: records built from the same fold.  Within the
   accumulator the head record's adjacency is in reverse. *)
let decode_region config blob =
  fold_region config blob
    ~node:(fun acc ~id ~x ~y ~to_anchor ~from_anchor ~degree:_ ->
      let landmark =
        if config.landmark_anchors = 0 then None
        else Some (Array.copy to_anchor, Array.copy from_anchor)
      in
      { id; x; y; adj = []; landmark } :: acc)
    ~edge:(fun acc ~target ~weight ~target_region ~flags ->
      let flags =
        if config.flag_bits = 0 then None
        else Some (Psp_util.Bitset.of_bytes config.flag_bits flags)
      in
      match acc with
      | r :: rest -> { r with adj = { target; weight; target_region; flags } :: r.adj } :: rest
      | [] -> invalid_arg "Encoding.decode_region: edge before any node")
    []
  |> List.rev_map (fun r -> { r with adj = List.rev r.adj })

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
