(** Dijkstra's algorithm [Dijkstra 1959] with a lazy-deletion heap.

    Used (i) by the client on the downloaded subgraph (§5.4 round four),
    (ii) by index pre-computation to find border-to-border shortest
    paths, and (iii) as the exact reference in tests. *)

type spt = {
  dist : float array;       (** dist.(v) = cost of SP(source, v); [infinity] if unreachable *)
  parent : int array;       (** predecessor node on the tree; -1 at source/unreachable *)
  parent_edge : int array;  (** edge id into v; -1 at source/unreachable *)
  settled : int;            (** number of nodes popped — the search effort *)
}

(** {2 Reusable workspace}

    A workspace holds its own copy of the graph's CSR arrays, the
    [dist]/[parent]/[parent_edge]/settled arrays and a
    {!Psp_util.Min_heap} of capacity [edge_count + 1] (each edge
    relaxes at most once per search, so the heap never grows).  A tree
    grown in it allocates no array.  Every entry point below runs the
    same loop on the one heap the library has, so all of them, and the
    client's solve in [Psp_core.Store], settle nodes in the same order
    and break ties the same way.  A workspace over [fst (Graph.reverse
    g)] grows backward trees, as [Arcflag.compute] does. *)

type workspace

val workspace : Graph.t -> workspace
(** A workspace for searches on this graph.  Not shared between
    domains. *)

val grow : workspace -> source:int -> unit
(** The full shortest-path tree from [source], written over the
    workspace's arrays.  @raise Invalid_argument if [source] is out of
    range. *)

val dist : workspace -> float array
val parent : workspace -> int array
val parent_edge : workspace -> int array
(** The last tree's arrays, as in {!spt}: the workspace's own, read in
    place and overwritten by the next {!grow}. *)

val settled : workspace -> int
(** Nodes the last {!grow} settled. *)

(** {2 One-shot searches}

    Each makes a fresh workspace and returns its arrays.  A caller that
    grows many trees on one graph keeps a {!workspace} instead. *)

val tree : Graph.t -> source:int -> spt
(** Full single-source shortest-path tree. *)

val tree_until : Graph.t -> source:int -> targets:int list -> spt
(** Stop as soon as every target is settled (exact distances for the
    settled prefix; [infinity] elsewhere means "not settled", not
    necessarily unreachable). *)

val distance : Graph.t -> int -> int -> float
(** Point-to-point cost; [infinity] if unreachable. *)

val shortest_path : Graph.t -> int -> int -> Path.t option
(** SP(s, t), or [None] if t is unreachable.  [Some (trivial s)] when
    s = t. *)

val path_to : Graph.t -> spt -> int -> Path.t option
(** Extract the tree path to a node from a computed SPT. *)
