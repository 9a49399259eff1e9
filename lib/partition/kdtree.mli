(** KD-tree partitioning of a road network into disk-page regions.

    §5.1: regions are the leaves of a KD-tree superimposed on the
    Euclidean plane.  The tree is concise (one split coordinate per
    internal node), lets any client map a coordinate pair to a region
    id, and produces spatially compact regions.

    Two constructions:

    - {!build_plain}: classic middle-of-the-byte-stream splitting until
      a leaf's node information fits in the page capacity.  Leaf
      payloads land anywhere in (capacity/2, capacity], wasting up to
      half of every page — the CI-P / PI-P configuration of Figure 8.
    - {!build_packed}: the §5.6 packing construction.  With z the
      largest single node's byte size, a "root-type" split is made at
      byte 2^i·(capacity − z) for the smallest i putting the split past
      the middle of the stream; its left subtree is then split plainly
      for exactly i levels (each leaf receiving ≈ capacity − z bytes),
      and the procedure recurses on the right subtree with the
      alternate axis.  Every page but possibly the last of each packed
      run is guaranteed at least capacity − 2z payload bytes — over
      95 % utilization on our networks.

    Node payload sizes are supplied by the caller ([node_bytes]),
    because they depend on the scheme (LM stores landmark vectors with
    each node, PI* enlarges capacity to several pages). *)

type axis = X | Y

type tree =
  | Leaf of { region : int }
  | Split of { axis : axis; coord : float; less : tree; geq : tree }
      (** points with axis-coordinate < coord go to [less] *)

type t = private {
  tree : tree;
  region_count : int;
  assignment : int array;    (** graph node -> region id *)
  region_nodes : int array array;  (** region id -> member nodes *)
}

val build_packed :
  Psp_graph.Graph.t -> node_bytes:(int -> int) -> capacity:int -> t
(** @raise Invalid_argument if any node's payload exceeds [capacity] or
    the graph is empty. *)

val build_plain :
  Psp_graph.Graph.t -> node_bytes:(int -> int) -> capacity:int -> t

val locate : t -> x:float -> y:float -> int
(** Region containing a point (clients map their source/destination
    coordinates with this, using only header information). *)

val region_of_node : t -> int -> int
val nodes_of_region : t -> int -> int array

val region_bytes : t -> node_bytes:(int -> int) -> int -> int
(** Total payload bytes of a region under the given encoding. *)

val utilization : t -> node_bytes:(int -> int) -> capacity:int -> float
(** Mean payload/capacity over regions — Figure 8(a). *)

val write_tree : Psp_util.Byte_io.Writer.t -> tree -> unit
(** The concise header form, the one writer of the tree's wire format:
    nodes in preorder, each a tag byte (0 leaf, 1 split on x, 2 split
    on y) followed by a leaf's varint region id or a split's float64
    coordinate. *)

val read_tree : Psp_util.Byte_io.Reader.t -> region_count:int -> tree
(** The one reader of {!write_tree}'s output — what a client rebuilds
    from the header (it has no assignment array).
    @raise Invalid_argument on a tag other than 0, 1 or 2, or on a leaf
    region outside [0, region_count).
    @raise Psp_util.Byte_io.Reader.Underflow on a tree cut short. *)

val locate_tree : tree -> x:float -> y:float -> int
(** Point location on a client-side deserialized tree. *)
