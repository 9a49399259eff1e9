(** Weighted directed graphs with Euclidean node coordinates.

    The road-network model of the paper (§3.1): nodes are junctions with
    (x, y) coordinates, directed edges carry positive traversal costs.
    Storage is compressed sparse row (CSR), so edges have dense integer
    ids [0 .. edge_count-1] — these ids key the Arc-flag bit-vectors and
    the PI passage subgraphs.

    Graphs are immutable once frozen from a {!Builder}. *)

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

val iter_in : t -> int -> (edge -> unit) -> unit
(** Iterate incoming edges (reverse adjacency is built lazily and
    cached; edge ids refer to the forward edge). *)

val edge : t -> int -> edge
(** Edge by id. @raise Invalid_argument if out of range. *)

val iter_edges : t -> (edge -> unit) -> unit

val euclidean : t -> int -> int -> float
(** Straight-line distance between two nodes' coordinates. *)

val min_weight_per_distance : t -> float
(** min over edges of weight / euclidean-length — the admissibility
    scale factor for the Euclidean A* heuristic (1.0 when weights are
    the Euclidean lengths; can be <1 for time-based weights).  Returns
    1.0 for a graph with no usable edge. *)

val bounding_box : t -> float * float * float * float
(** (min_x, min_y, max_x, max_y) over all nodes.
    @raise Invalid_argument on an empty graph. *)

val nearest_node : t -> x:float -> y:float -> int
(** Node whose coordinates are closest to the given point (linear scan —
    clients hold small region subgraphs).
    @raise Invalid_argument on an empty graph. *)

val reverse : t -> t
(** The graph with every edge flipped.  Edge ids are re-assigned; use
    {!iter_in} on the original graph when forward edge ids are needed
    during a backward traversal. *)

val subgraph_of_edges : t -> int list -> t
(** Graph on the same node set containing only the listed edge ids
    (ids are re-assigned densely).  Used to materialize PI passage
    subgraphs on the client. *)
