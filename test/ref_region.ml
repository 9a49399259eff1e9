(* The region reader as it stood before the flat-buffer reader replaced
   it: a closure fold over the blob and the record decoder built on it,
   copied verbatim (only the module paths qualified and the grid and
   flag-size helpers it reads copied beside it).  Tests compare
   [Encoding.read_region] and [Encoding.decode_region] against it, so
   the reference does not depend on the code it checks. *)

module E = Psp_index.Encoding
module R = Psp_util.Byte_io.Reader
open E

let grid_bias = 16384
let grid_value ~epsilon k = (1.0 +. epsilon) ** float_of_int (k - grid_bias)
let flag_bytes = Psp_util.Bitset.bytes_for

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

