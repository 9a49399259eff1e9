(** Client-side store of downloaded network data.

    Schemes file fetched region blobs into this structure and solve the
    final shortest-path instance over it.  Everything is client-local:
    no function here issues a fetch, so the module is outside the
    adversary's view by construction.

    {b One decoder.}  {!add_region} files a region blob straight from
    {!Psp_index.Encoding.fold_region} into flat arrays: coordinates and a
    filed mark per node, target and weight per edge, and landmark
    vectors, target regions and arc-flags only when the region config
    carries them.  No record is built on the way.

    {b Local ids.}  Every global node id gets a dense local id the first
    time it appears, as a filed record or as an edge endpoint: a
    record's own id first, then, only if the record is newly filed, its
    edge targets in encoded order.  A duplicate record interns nothing.
    Local ids never leave the module: every argument and result here is
    a global node id.

    {b Adjacency order.}  A node's out-edges are kept in delivery order:
    a record's edges in encoded order when the record is filed, then
    every later {!add_triple} for that source, appended.  The solver
    relaxes them in exactly that order, which fixes how equal-cost paths
    tie-break and therefore which path {!dijkstra} returns.

    {b Reuse.}  Each domain keeps a free list of stores.  {!acquire}
    takes a cleared store from it and {!release} clears a store and
    hands it back, so the tables, the solver's arrays and its heap keep
    their capacity from query to query.  A store that is never released
    (say, its walk raised) is simply garbage: nothing leaks, and no store
    is shared across domains.  Every batch runs to completion before the
    next one starts, so a domain holds at most one batch's stores, one
    per member, in flight. *)

type t

val create : unit -> t
(** A fresh empty store, outside any free list. *)

val acquire : unit -> t
(** An empty store from this domain's free list, or a fresh one. *)

val release : t -> unit
(** Clear the store and return it to this domain's free list.  Nothing
    read from it may be used afterwards.  Clearing costs a few field
    writes: entries are re-initialised as they are handed out again.
    @raise Invalid_argument if the store is already released. *)

val add_region : t -> Psp_index.Encoding.config -> int -> bytes -> unit
(** [add_region store config region blob] files the records of a region
    blob under [region], in encoded order.  A record whose node is
    already filed (under any region) is parsed and ignored, so duplicate
    deliveries are no-ops.  The first filing after a clear fixes which
    extras the store keeps; a later filing under a config with other
    extras is refused.
    @raise Invalid_argument on a negative region, a config whose extras
    differ from the store's, or a malformed blob (see
    {!Psp_index.Encoding.fold_region}, which may also raise
    [Underflow]). *)

val add_triple : t -> Psp_index.Encoding.edge_triple -> unit
(** Append one subgraph edge to its source's adjacency (PI/HY edge
    records); duplicates are kept, as delivered.  A triple carries no
    target region and no arc-flags. *)

val has_record : t -> int -> bool
(** Whether the node's record has been filed. *)

(** {2 Filed records}

    Each accessor reads a filed node's record.
    @raise Invalid_argument if the node is not filed. *)

val x : t -> int -> float
val y : t -> int -> float

val landmarks : t -> int -> to_anchor:float array -> from_anchor:float array -> unit
(** Copy the node's landmark vectors into [to_anchor] and [from_anchor],
    each at least as long as the config's anchor count (nothing is
    copied without landmarks). *)

val has_flags : t -> bool
(** Whether the filed regions carry arc-flags. *)

val iter_out :
  t ->
  int ->
  flag:int ->
  (target:int -> weight:float -> target_region:int -> flagged:bool -> unit) ->
  unit
(** [iter_out store v ~flag f] calls [f] on each out-edge of [v] in
    adjacency order (nothing for a node the store has never seen).
    [target_region] is -1 unless the config stores region ids;
    [flagged] is the edge's arc-flag bit [flag], [false] without flags.
    @raise Invalid_argument if flags are stored and [flag] is outside
    the flag bits. *)

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
