(** Arc-flag pre-computation [Köhler, Möhring & Schilling 2006].

    Given a partition of the nodes into regions, every edge e carries a
    bit-vector with one bit per region: bit j is set iff e lies on a
    shortest path towards some node of region j.  A query towards
    destination region j then only relaxes edges whose bit j is set
    (the AF client's search in [Psp_core]).
    This is the pre-computed payload of the AF baseline (§4). *)

type t

val compute : Graph.t -> region_of:int array -> region_count:int -> t
(** Standard boundary-node construction: for every region j and every
    boundary node b of j (a node of j with an in-edge from outside),
    grow a backward shortest-path tree from b (a {!Dijkstra.grow} on
    the reversed graph, in one workspace) and flag its tree edges with
    j; edges internal to j are flagged with j as well.
    @raise Invalid_argument if [region_of] has the wrong length or
    contains an id outside [0, region_count). *)

val region_count : t -> int

val flag : t -> edge:int -> region:int -> bool
(** Is edge [edge] useful towards region [region]? *)

val flags_of_edge : t -> int -> Psp_util.Bitset.t
(** The full bit-vector of an edge (copy). *)
