(** On-page record encodings shared by every scheme.

    All database sizes, page utilizations and spans in the experiments
    come from these byte layouts, so they are defined once here.

    Node records (region data file F_d, §5.3): node id, coordinates
    (float32), adjacency list.  Scheme-dependent extras: the target's
    region id per edge (LM/AF chase nodes into not-yet-fetched regions),
    the Landmark vector per node (LM), the Arc-flag bit-vector per edge
    (AF).

    Network-index records (F_i) are built by {!Fi_builder} on top of the
    element encodings here: region-id sets for CI, edge triples for
    PI/HY/PI*.

    Look-up entries (F_l) are fixed-size: page number, in-page offset,
    page span.

    Region blobs have one reader, {!read_region}: one loop, no closure
    call, into a reusable buffer of flat arrays, with nothing allocated
    or boxed per record or edge.  The client store files from that
    buffer; {!decode_region} builds records from it for tests and
    tools. *)

type config = {
  with_region_ids : bool;  (** store the target's region id with each edge *)
  landmark_anchors : int;  (** 0 = no landmark vectors *)
  flag_bits : int;         (** 0 = no arc-flags; else bits per edge *)
  quantize : float;
      (** 0 = exact float32 weights; epsilon > 0 stores each weight as a
          varint index on the multiplicative grid (1+epsilon)^k, rounded
          up.  Any path computed on quantized weights has true cost
          within (1+epsilon) of optimal, and weights shrink from 4 to
          ~2 bytes — the paper's future-work "lossy compression /
          approximate schemes with bounded cost deviation". *)
}

val plain_config : config
(** CI/PI/HY/PI* node payload: no extras, exact weights. *)

val quantize_up : epsilon:float -> float -> float
(** The smallest grid value >= the weight; identity when epsilon = 0. *)

type adj = {
  target : int;
  weight : float;
  target_region : int;           (** -1 when not stored *)
  flags : Psp_util.Bitset.t option;
}

type node_record = {
  id : int;
  x : float;
  y : float;
  adj : adj list;
  landmark : (float array * float array) option;
      (** (to-anchor, from-anchor) distance vectors *)
}

val node_bytes : config -> Psp_graph.Graph.t -> int -> int
(** Encoded size of one node under a config — drives KD-tree packing. *)

val encode_region :
  config ->
  Psp_graph.Graph.t ->
  ?region_of:int array ->
  ?landmark:Psp_graph.Landmark.t ->
  ?flags:(int -> Psp_util.Bitset.t) ->
  int array ->
  bytes
(** Encode the node records of a region's members.  Each record carries
    exactly [config.landmark_anchors] landmark vector pairs, read from
    [landmark].
    @raise Invalid_argument if [config] asks for region ids or flags
    that are not given, if it asks for landmark vectors that are not
    given, if [landmark] is given under a config with no anchors, or if
    [landmark]'s anchor count differs from the config's. *)

(** {2 Reading region blobs} *)

type region = private {
  mutable nodes : int;  (** records read *)
  mutable ids : int array;
  mutable xs : float array;
  mutable ys : float array;
  mutable degrees : int array;  (** edges per record *)
  mutable to_anchor : float array;
      (** [landmark_anchors] per record: record [i]'s vector starts at
          [i * landmark_anchors] *)
  mutable from_anchor : float array;
  mutable edges : int;  (** edges read, over all records *)
  mutable targets : int array;
  mutable weights : float array;
  mutable target_regions : int array;  (** with region ids only *)
  mutable flags : Bytes.t;
      (** with arc-flags only: [Bitset.bytes_for flag_bits] bytes per
          edge, as {!Psp_util.Bitset.to_bytes} writes them *)
}
(** A decoded region, as flat arrays indexed by record ([0 .. nodes-1])
    and by edge ([0 .. edges-1]): record [i]'s edges follow record
    [i-1]'s, [degrees.(i)] of them, in encoded order.  Cells past
    [nodes] and [edges], and the arrays of extras the config does not
    carry, hold stale data.  The buffer is reused: each
    {!read_region} overwrites it and grows its arrays only when a blob
    needs more room than any before. *)

val region_buffer : unit -> region
(** An empty buffer. *)

val read_region : config -> region -> bytes -> unit
(** [read_region config r blob] decodes a region blob (or concatenated
    region pages; bytes past the last record are ignored) into [r], in
    one pass with no closure call and nothing allocated per record or
    edge.  This is the one reader of the layout.

    Every count and degree is checked against the bytes left before the
    reader runs that many steps or sizes anything by it.  After a failed
    read [r] holds no records.
    @raise Invalid_argument on a count or degree the blob cannot hold.
    @raise Psp_util.Byte_io.Reader.Underflow on a blob cut short. *)

val decode_region : config -> bytes -> node_record list
(** The records of a region blob, built from {!read_region}'s buffer:
    [target_region] is -1 and [flags] [None] unless the config stores
    them.  The client files regions from the buffer directly; this is
    the reference its tests and kernels compare against. *)

(** {2 Look-up entries (F_l)} *)

val lookup_entry_bytes : int
(** 10: u32 base page, u32 byte offset from the base, u16 page span. *)

val encode_lookup_entry : page:int -> offset:int -> span:int -> bytes
val decode_lookup_entry : bytes -> pos:int -> int * int * int
(** [(page, offset, span)] at byte position [pos]. *)

(** {2 Element lists inside F_i records} *)

val encode_region_ids : Psp_util.Byte_io.Writer.t -> int array -> unit
(** Sorted region ids as varint deltas. *)

val decode_region_ids : Psp_util.Byte_io.Reader.t -> count:int -> int array
(** @raise Invalid_argument when [count] exceeds the bytes left. *)

type edge_triple = { e_src : int; e_dst : int; e_weight : float }

val encode_edge_triples :
  ?quantize:float -> Psp_util.Byte_io.Writer.t -> edge_triple array -> unit

val decode_edge_triples :
  ?quantize:float -> Psp_util.Byte_io.Reader.t -> count:int -> edge_triple array
(** @raise Invalid_argument when [count] exceeds the bytes left. *)

val triple_of_edge : Psp_graph.Graph.t -> int -> edge_triple
