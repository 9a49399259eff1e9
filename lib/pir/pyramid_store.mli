(** A hierarchical (pyramid) oblivious store in the style of the
    Williams–Sion "Usable PIR" protocol [NDSS 2008] — the protocol the
    paper builds on.

    Layout: a small cache of [c] pages lives in SCP memory; below it,
    level [j] of [L] holds up to [3c · 4{^j-1}] items ([n], the file's
    page count, at the deepest) in an array of encrypted slots scattered
    by a keyed Feistel permutation ({!Cost_model.pyramid_level}).  A
    lookup walks the pyramid top-down and touches exactly one physical
    slot per level:

    - if the item was already found higher up (or is cached), a fresh
      dummy slot of the level is read;
    - otherwise the SCP looks the item up in the level's slot
      assignment (in SCP memory: invisible to the host) and reads the
      item's slot if the level holds it, a fresh dummy if not.

    Williams–Sion (CCS 2008) answer this test with an encrypted
    per-level filter kept on the host; here the assignment already sits
    in SCP memory, so the lookup needs no filter.

    The item then moves into the cache; when the cache fills, levels
    0..i are merged into level i+1 under fresh keys (a rebuild, visible
    to the host as a bulk event whose timing depends only on the access
    count).  Hence the host sees, for any logical access sequence of
    the same length: the same number of slot touches per level, all
    distinct within a level's epoch, and rebuilds at a fixed cadence —
    nothing else.

    Storage: each level's slot buffers ([cap + dummies] pages, fixed by
    {!Cost_model.pyramid_level}) are allocated once, at {!create}, and
    reused across epochs.  Every rebuild rewrites every one of them in
    place under the new epoch's key — items encrypted, all other slots
    (unused item slots and dummies) filled with the keystream — so no
    slot is skipped, kept lazily or left holding an earlier epoch's
    ciphertext ({!host_digest} pins this).  The epoch's encryption key
    is derived once per rebuild and kept with the level for the reads
    that follow.

    This is the server's one oblivious store ([`Pyramid] mode).  The
    {!Cost_model} charges the paper's amortized O(log² N) per access;
    the executed per-probe touch count is one slot per level. *)

type t

type physical_event =
  | Slot of { level : int; epoch : int; slot : int }
      (** host-visible slot touch *)
  | Rebuild of { level : int; items : int }
      (** levels 0..level-1 merged into [level] *)

val default_cache_capacity : int
(** The SCP cache capacity of every store {!create} builds (4) — also
    the capacity {!Cost_model.pyramid_levels} is consulted with when the
    server simulates a pyramid it does not instantiate. *)

val create : key:bytes -> Psp_storage.Page_file.t -> t
(** Snapshot the file's pages.  The cache holds
    {!default_cache_capacity} pages; the pyramid depth is
    {!Cost_model.pyramid_levels}[ ~cache_capacity ~file_pages].
    @raise Invalid_argument on an empty file. *)

val page_count : t -> int
(** Logical pages served (the snapshotted file's page count). *)

val level_count : t -> int
(** Pyramid depth: number of levels below the SCP cache. *)

val cache_capacity : t -> int
(** SCP cache slots; also the flush (and level-1 rebuild) cadence. *)

val read : t -> int -> bytes
(** Logical page content — a width-1 {!fetch_many}.
    @raise Invalid_argument on an out-of-range page. *)

val fetch_many : t -> int array -> bytes array
(** Serve a width-k batch of logical page reads as merged level scans:
    per flush-cadence chunk, one sequential sweep over each level's
    epoch touches every member's slot (one key schedule per level
    instead of k).  Dummy slots are drawn
    per member in member order, so each member's slot-touch subsequence
    of {!physical_trace} is byte-identical to the k sequential {!read}s'
    — the host additionally learns only the batch width, which it
    observes anyway.  Each extra member beyond the first adds exactly
    {!level_count} slot touches, the
    {!Cost_model.batch_probe_touches} basis of the batched cost model.
    Duplicate pages within a batch are served obliviously (the repeat
    draws dummies, like a cache hit).
    @raise Invalid_argument on an out-of-range page. *)

val slot_touches : t -> int
(** Physical slot touches executed since creation (the number of [Slot]
    events ever recorded, surviving {!clear_trace}) — what
    [test_batch.ml] and the batch benchmark compare against the cost
    model's page-touch basis. *)

val level_scans : t -> int
(** Merged level scans executed since creation: sequential sweeps over
    one level's epoch, each serving a whole chunk's probes.  A width-k
    batch runs [level_count] scans per flush-cadence chunk instead of
    [k · level_count] — the executed-side amortization. *)

val rewritten_slots : t -> int
(** Slots rewritten by the rebuilds that flushes have executed since
    creation: the sum of the rebuilt levels' domains ([cap + dummies]),
    not counting the initial build.  The flush cadence and the layout
    are public, so this is a public function of the access count and
    {!Cost_model.pyramid_level} — the rebuild work a layout change
    moves. *)

val host_digest : t -> bytes
(** SHA-256 over what the host stores: for each level, shallow to deep,
    its epoch (8 bytes, little-endian) and then every slot's ciphertext
    in slot order.  Read-only; tests pin it so that a rebuild which
    leaves an earlier epoch's bytes in any slot is caught, not only one
    that moves a slot touch. *)

val physical_trace : t -> physical_event list
(** Host-visible events since creation (or the last {!clear_trace}),
    in order — what obliviousness tests compare across accesses. *)

val clear_trace : t -> unit
(** Forget the recorded events (the store's state is untouched).  A
    [`Pyramid] [Server] calls it after every pass over a store it owns,
    so the log never outgrows one pass. *)

