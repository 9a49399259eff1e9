(** Border-pair shortest-path pre-computation (§5.2, §6).

    For every unordered region pair (i, j), i ≤ j (the paper makes the
    same reduction), grow a shortest-path tree from every border node
    and walk it to every other border node, accumulating:

    - the *region set* S_{i,j}: identifiers of intermediate regions
      crossed by at least one border-to-border shortest path (excluding
      i and j themselves) — the CI payload;
    - the *passage subgraph* G_{i,j}: the exact edges on those paths,
      plus the crossing edges entering R_i and R_j (which a client
      cannot otherwise see, since their sources lie outside the two
      fetched regions) — the PI payload.

    The i = j diagonal is included: a shortest path between two nodes of
    the same region may detour through neighbours.

    The walk is row-major.  Row i grows one tree per border node s of
    R_i; for each column j it climbs from every reachable border node of
    R_j towards s and stops at the first node already climbed for
    (s, j), so each tree node is visited once per column.  The row's
    sources fill one set per column, which at the row's end holds the
    directed contribution D(i→j).  S_{i,j} and G_{i,j} are the merged
    union of D(i→j) and D(j→i): paths run both ways, and on a directed
    network the two differ. *)

type t

val compute :
  ?domains:int ->
  Psp_graph.Graph.t ->
  assignment:int array ->
  border:Psp_partition.Border.t ->
  want_sets:bool ->
  want_subgraphs:bool ->
  t
(** One pass computes whichever payloads are requested (HY needs both).
    [domains] parallelizes over rows with OCaml 5 domains (default: up
    to 4, per the machine); each row is computed whole by one domain, so
    the result is identical for any value. *)

val region_count : t -> int

val pair_index : region_count:int -> int -> int -> int
(** Dense index of the unordered pair; arguments in any order. *)

val pair_count : t -> int

val region_set : t -> int -> int -> int array
(** S_{i,j}, sorted.  @raise Invalid_argument if sets were not computed. *)

val subgraph : t -> int -> int -> int array
(** G_{i,j} as sorted edge ids.
    @raise Invalid_argument if subgraphs were not computed. *)

val max_set_cardinality : t -> int
(** The paper's m: max |S_{i,j}| over all pairs. *)

val set_cardinality_histogram : t -> int array
(** histogram.(c) = number of pairs with |S_{i,j}| = c — Figure 10(a). *)
