(** The public header file F_h (§5.3).

    Downloaded in full by every querying client (it is
    query-independent, so the plain download leaks nothing): the KD-tree
    partitioning, the region → data-page map, the query plan, and
    metadata of the other files.  The header is what a client needs to
    run the whole protocol with no other out-of-band knowledge. *)

type t = {
  scheme : string;                (** "CI", "PI", "HY", "PI*", "LM", "AF" *)
  tree : Psp_partition.Kdtree.tree;
  region_count : int;
  region_first_page : int array;  (** region id -> first page in the data file *)
  pages_per_region : int;
  plan : Query_plan.t;
  config : Encoding.config;       (** node-record layout of the data file *)
  heuristic_scale : float;
      (** graph-wide minimum edge cost per Euclidean length — the scale
          that makes distance-based lower bounds admissible for clients
          (LM's frontier bound); 0 disables them *)
  index_pages : int;              (** page count of F_i (0 if absent) *)
  lookup_pages : int;
  data_pages : int;
  data_offset : int;              (** HY: index of the first data page in the
                                      combined file; 0 elsewhere *)
}

val encode : t -> bytes
val decode : bytes -> t
(** @raise Invalid_argument on a region count the blob cannot hold, a
    bad plan or tree tag, or a leaf region outside [0, region_count).
    @raise Psp_util.Byte_io.Reader.Underflow on a blob cut short. *)

val to_page_file : t -> page_size:int -> Psp_storage.Page_file.t
(** Chunk the encoded header into pages of a file named "header". *)

val of_pages : bytes array -> t
(** Reassemble from downloaded header pages.  Raises as {!decode}, and
    [Invalid_argument] on a length prefix past the pages' end. *)

val locate : t -> x:float -> y:float -> int
(** Map a coordinate to its region — the client's first step. *)
