(** Landmark (ALT) pre-computation [Goldberg & Harrelson 2005].

    Chooses anchor nodes and stores, for every node, the shortest-path
    costs to and from each anchor.  The triangle inequality then yields
    an admissible A* heuristic, which the LM client computes from the
    vectors it downloads:
      h(v) = max_a max(d(v,a) − d(t,a), d(a,t) − d(a,v)).
    This is the pre-computed payload of the LM baseline (§4): the
    landmark vector is stored with each node in the region data file,
    so the anchor count directly sizes F_d (Figure 5b). *)

type t

val select_farthest : Graph.t -> count:int -> seed:int -> t
(** Greedy farthest-point anchor selection (standard ALT heuristic):
    start from a random node, repeatedly add the node maximizing the
    distance to the chosen set.  Pre-computes both distance directions.
    @raise Invalid_argument if [count < 1] or the graph is empty. *)

val anchor_count : t -> int
val anchors : t -> int array

val to_anchor : t -> int -> int -> float
(** [to_anchor t a v] = d(v, anchor_a). *)

val from_anchor : t -> int -> int -> float
(** [from_anchor t a v] = d(anchor_a, v). *)
