(** Network-index file (F_i) construction with delta compression
    (§5.5 for region sets, §6 for subgraphs).

    Records are added in ascending (i, j) key order and packed
    contiguously.  A record may be stored as a *delta* against an
    earlier record — inclusions plus (for region sets) exclusions — when
    they share elements.  Retrieval must stay plan-shaped: the client
    always fetches a fixed number of consecutive pages starting at the
    page its look-up entry names.  We therefore anchor every record to a
    {e window base}: the first page of its reference chain.  The look-up
    entry stores (base page, byte offset from the base, page span
    through the record's end), so the fetched window always contains the
    record and its entire chain.  Reference pointers are byte offsets
    relative to the base page.

    Span discipline (what keeps the query plan tight):
    - a plain record smaller than a page never straddles one (§5.3);
    - a plain record larger than a page starts on a fresh page exactly
      when that reduces its span (§5.3);
    - a delta is used only when its window span stays within 1.5x (+1)
      of the record's plain span, so the plan's fi-span never blows up
      while long chains of well-overlapping records compress freely.

    Exclusions keep a region-set's inflated fetch set within the
    caller's m bound (inflation is free: the plan pads data-page
    fetches to m + 2 anyway).  Subgraph deltas never need exclusions —
    extra real edges cannot mislead a shortest-path search.

    Record wire format:
      u8 kind (0 = region set, 1 = edge subgraph)
      u32 reference pointer, base-relative (0xFFFFFFFF = none)
      varint inclusion count; encoded elements
      varint exclusion count; region-id deltas  (kind 0 only) *)

type kind = Region_set | Subgraph

type placement = {
  page : int;    (** window base page *)
  offset : int;  (** byte offset of the record from the base page start *)
  span : int;    (** pages from the base through the record's end *)
}

type t

val create :
  graph:Psp_graph.Graph.t -> page_size:int -> compress:bool -> quantize:float ->
  m_bound:int option -> t
(** [m_bound] activates exclusion logic for region sets: the inflated
    fetch set is kept within the bound (CI's m / HY's threshold).
    [quantize] > 0 stores subgraph edge weights on the (1+epsilon)
    grid. *)

val add : t -> kind:kind -> int array -> placement
(** Add the next record (elements: region ids for [Region_set], edge
    ids for [Subgraph]).  Returns its placement.  Elements already in
    strictly increasing order are kept as given, not copied, so the
    caller must not change the array afterwards. *)

val fetch_set : t -> placement -> int array
(** The inflated element set a client will obtain for a region-set
    record — superset of what was passed to {!add} (the HY round-4
    budget, testing).  Subgraph records keep no fetch set.
    @raise Invalid_argument on a subgraph record's placement or an
    unknown placement. *)

val max_span : t -> kind:kind -> int
(** Largest [span] among records of a kind (0 if none). *)

val page_count : t -> int

val flush_to : t -> Psp_storage.Page_file.t -> unit
(** Emit all pages.  No further [add] is allowed. *)

(** {2 Client-side record decoding} *)

val max_chain_depth : int
(** The most delta links the builder stacks on a plain record: a chain
    holds at most [max_chain_depth + 1] records. *)

type decoded =
  | Regions of int array                 (** inflated region-id fetch set *)
  | Edges of Encoding.edge_triple array  (** subgraph edge list (may repeat) *)

val decode :
  quantize:float -> pages:bytes array -> base_page:int -> offset:int -> decoded
(** Decode a record from a fetched page window.  [base_page] is the
    index *within the window* of the record's base page; [offset] the
    record's byte offset from that base (it may exceed one page).
    Reference chains resolve against the same base, in one walk over
    the pointers and one linear combination from the deepest record
    outwards.
    @raise Invalid_argument on a chain longer than [max_chain_depth + 1]
    records, a pointer that does not point strictly backwards (so every
    cycle), mixed record kinds, a bad kind or an element count the
    record cannot hold.
    @raise Psp_util.Byte_io.Reader.Underflow on a record cut short. *)
