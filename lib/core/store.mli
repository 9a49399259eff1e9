(** Client-side store of downloaded network data.

    Schemes decode fetched region blobs into this structure and solve the
    final shortest-path instance over it.  Everything is client-local:
    no function here issues a fetch, so the module is outside the
    adversary's view by construction.

    {b Local ids.}  Every global node id gets a dense local id the first
    time it appears, as a filed record or as an edge endpoint; records,
    adjacency and the solver's distance, parent and closed marks are flat
    arrays over those ids.  Local ids never leave the module: every
    argument and result here is a global node id.

    {b Adjacency order.}  A node's out-edges are kept in delivery order:
    a record's edges in encoded order when the record is filed, then
    every later {!add_triple} for that source, appended.  The solver
    relaxes them in exactly that order, which fixes how equal-cost paths
    tie-break and therefore which path {!dijkstra} returns. *)

type t

val create : ?nodes:int -> unit -> t
(** An empty store with room for about [nodes] nodes (default 256)
    before any table grows. *)

val add_region : t -> int -> Psp_index.Encoding.node_record list -> unit
(** [add_region store region records] files a decoded region's records
    under [region], in list order.  A record whose node is already filed
    (under any region) is ignored, so duplicate deliveries are no-ops. *)

val add_triple : t -> Psp_index.Encoding.edge_triple -> unit
(** Append one subgraph edge to its source's adjacency (PI/HY edge
    records); duplicates are kept, as delivered. *)

val record : t -> int -> Psp_index.Encoding.node_record option
val has_record : t -> int -> bool

val snap : t -> int -> x:float -> y:float -> int
(** Nearest filed node of the given region to the coordinates, by
    squared Euclidean distance; among equidistant nodes the one filed
    last wins.
    @raise Failure if the region holds no nodes (malformed database). *)

val dijkstra : t -> source:int -> target:int -> (int list * float) option
(** Exact shortest path over the downloaded adjacency: the node sequence
    from [source] to [target] and its cost, summed edge by edge along
    the search.  [Some ([source], 0.0)] when [source = target]; [None]
    when the target is unreachable from the source within the store
    (including either end being unknown to it). *)
