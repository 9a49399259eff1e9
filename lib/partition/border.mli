(** Border nodes of a partition (§5.2).

    The paper's border nodes are the geometric intersections of edges
    with KD-tree split lines; they exist only during pre-computation and
    are discarded afterwards.  We realize them graph-theoretically: the
    border set of region R is the set of *outside endpoints of crossing
    edges* — every path from inside R to outside (or vice versa)
    traverses a crossing edge and therefore visits such a node
    immediately after leaving (before entering) R.  This preserves the
    covering property the pre-computation relies on: for any s ∈ Ri,
    t ∈ Rj, the shortest path decomposes as

      s ⇝ (inside Ri) → v ∈ border(Ri) ⇝ u ∈ border(Rj) → (inside Rj) ⇝ t

    so the regions/edges of all border-to-border shortest paths cover
    every possible query path outside Ri ∪ Rj. *)

type t

val compute : Psp_graph.Graph.t -> assignment:int array -> region_count:int -> t
(** @raise Invalid_argument on length mismatch. *)

val region_count : t -> int

val border_nodes : t -> int -> int array
(** Outside endpoints of edges crossing region [r]'s boundary (either
    direction), sorted, deduplicated. *)

val all_border_nodes : t -> int array
(** Union over all regions, sorted, deduplicated — the Dijkstra sources
    of the pre-computation. *)

val entering_edges : t -> int -> int array
(** Edge ids u→w with u outside region [r] and w inside — the crossing
    edges PI must pack into G_{i,j} so a client can re-enter R_j. *)
