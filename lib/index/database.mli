(** Scheme databases: the files the LBS hosts, per scheme (§5–§6).

    Each builder runs the full offline pipeline — partitioning,
    pre-computation, file formation — and returns the resulting page
    files together with the header and build statistics.  File names
    follow the paper: "header" (F_h), "lookup" (F_l), "index" (F_i),
    "data" (F_d); HY concatenates index and data into one "combined"
    file precisely so the adversary cannot tell which kind of record
    answered a query (§6).

    LM and AF databases are built with a plan that budgets the whole
    data file plus one region: round 2 charges two region windows even
    when source and destination share a region, so a query that visits
    every region consumes [regions + 1].  [Psp_core.Calibrate] may tighten it to a query
    workload's maximum (the paper derives the budget from exhaustive
    execution); a query that outgrows its plan fails closed. *)

type stats = {
  m : int;                 (** CI/HY: max |S_{i,j}| before replacement *)
  fi_span_sets : int;      (** max pages spanned by a region-set record *)
  fi_span_subgraphs : int; (** max pages spanned by a subgraph record *)
  replaced_pairs : int;    (** HY: sets replaced by subgraphs *)
  borders_total : int;
  precompute_pairs : int;
}

type t = {
  scheme : string;
  graph : Psp_graph.Graph.t;
  partition : Psp_partition.Kdtree.t;
  header : Header.t;
  header_file : Psp_storage.Page_file.t;
  lookup : Psp_storage.Page_file.t option;
  index : Psp_storage.Page_file.t option;
  data : Psp_storage.Page_file.t;   (** HY: the combined file *)
  stats : stats;
}

val files : t -> Psp_storage.Page_file.t list
(** All files to register with the server (header first). *)

val total_bytes : t -> int

val with_plan : t -> Query_plan.t -> t
(** Replace the plan and re-emit the header file (plan calibration). *)

type prepared
(** The partition, border sets and full border-pair pre-computation for
    a (graph, page size) pair — the expensive offline work.  Parameter
    sweeps (HY thresholds, compression on/off) hand the same [prepared]
    to several builders instead of recomputing it. *)

val prepare : page_size:int -> Psp_graph.Graph.t -> prepared
(** Packed partitioning at one page per region plus both S_{i,j} and
    G_{i,j} pre-computations. *)

val prepared_histogram : prepared -> int array
(** |S_{i,j}| cardinality histogram (Figure 10a). *)

val prepared_max_cardinality : prepared -> int

val build_ci :
  ?packed:bool -> ?compress:bool -> ?prepared:prepared -> ?epsilon:float ->
  page_size:int -> Psp_graph.Graph.t -> t
(** Concise Index (§5).  [packed] (default true) selects §5.6
    partitioning; [compress] (default true) the §5.5 index compression.
    [prepared] (packed only) reuses an existing pre-computation.
    [epsilon] > 0 builds the approximate variant from the paper's
    future-work list: weights are stored on a (1+epsilon) grid,
    shrinking the database while bounding every answer's cost deviation
    by the factor (1+epsilon). *)

val build_pi :
  ?packed:bool -> ?compress:bool -> ?prepared:prepared -> ?epsilon:float ->
  page_size:int -> Psp_graph.Graph.t -> t
(** Passage Index (§6). *)

val build_hy :
  ?compress:bool -> ?prepared:prepared -> threshold:int -> page_size:int ->
  Psp_graph.Graph.t -> t
(** Hybrid (§6): region sets with |S_{i,j}| > [threshold] are replaced
    by their G_{i,j} subgraphs; index and data share one combined file. *)

val build_pi_star :
  ?compress:bool -> cluster:int -> page_size:int -> Psp_graph.Graph.t -> t
(** Clustered PI (§6): [cluster] pages per region. *)

val build_lm :
  anchors:int -> seed:int -> page_size:int -> Psp_graph.Graph.t ->
  t * Psp_graph.Landmark.t
(** Landmark baseline (§4); the plan budgets the whole data file plus one
    page (see above). *)

val build_af :
  target_regions:int -> page_size:int -> Psp_graph.Graph.t ->
  t * Psp_graph.Arcflag.t
(** Arc-flag baseline (§4); the plan budgets every region plus one. *)
