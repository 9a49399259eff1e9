(** Weighted directed graphs with Euclidean node coordinates.

    The road-network model of the paper (§3.1): nodes are junctions with
    (x, y) coordinates, directed edges carry positive traversal costs.
    Storage is compressed sparse row (CSR), so edges have dense integer
    ids [0 .. edge_count-1] — these ids key the Arc-flag bit-vectors and
    the PI passage subgraphs.

    Graphs are immutable once frozen from a {!Builder}: no operation
    changes a graph, and {!reverse} builds a new one. *)

type t

type edge = { src : int; dst : int; weight : float; id : int }

module Builder : sig
  type graph := t
  type t

  val create : unit -> t

  val add_node : t -> x:float -> y:float -> int
  (** Returns the new node's id (consecutive from 0). *)

  val add_edge : t -> int -> int -> float -> unit
  (** [add_edge b u v w] adds the directed edge u→v of weight [w].
      @raise Invalid_argument on unknown endpoints or non-positive
      weight. *)

  val add_undirected : t -> int -> int -> float -> unit
  (** Both directions with the same weight. *)

  val node_count : t -> int

  val freeze : t -> graph
  (** Build the immutable CSR graph.  Duplicate parallel edges are kept
      (road networks can have them). *)
end

val node_count : t -> int
val edge_count : t -> int

val x : t -> int -> float
val y : t -> int -> float
val coords : t -> int -> float * float

val out_degree : t -> int -> int

val iter_out : t -> int -> (edge -> unit) -> unit
(** Iterate outgoing edges of a node. *)

val fold_out : t -> int -> ('acc -> edge -> 'acc) -> 'acc -> 'acc

val out_start : t -> int -> int
(** [v]'s out-edges are the edge ids [out_start t v] to
    [out_start t (v + 1) - 1], in {!iter_out} order.  With {!edge_dst}
    and {!edge_weight} this walks a row without allocating; [v] is
    checked only by the array access ([0 <= v <= node_count t]). *)

val edge_dst : t -> int -> int
val edge_weight : t -> int -> float

val csr : t -> int array * int array * float array
(** Fresh copies of the CSR arrays: row offsets (length
    [node_count t + 1], as {!out_start}), edge targets and edge weights
    by edge id.  A loop over the copies reads each weight in place,
    where {!edge_weight} returns a boxed float to a caller in another
    module. *)

val edge : t -> int -> edge
(** Edge by id. @raise Invalid_argument if out of range. *)

val iter_edges : t -> (edge -> unit) -> unit

val euclidean : t -> int -> int -> float
(** Straight-line distance between two nodes' coordinates. *)

val min_weight_per_distance : t -> float
(** min over edges of weight / euclidean-length — the scale that makes
    a scaled Euclidean distance an admissible lower bound on path cost
    (1.0 when weights are the Euclidean lengths; can be <1 for
    time-based weights).  Returns 1.0 for a graph with no usable edge. *)

val bounding_box : t -> float * float * float * float
(** (min_x, min_y, max_x, max_y) over all nodes.
    @raise Invalid_argument on an empty graph. *)

val reverse : t -> t * int array
(** The graph with every edge flipped, and the forward edge id of each
    reversed edge: reversed edge [e] is forward edge [ids.(e)] with its
    ends swapped.  A node's out-edges in the reversed graph are its
    in-edges in the forward graph, in ascending forward id, so a
    backward search is a forward search on the reversed graph that maps
    its tree edges back through [ids]. *)
