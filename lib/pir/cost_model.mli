(** Timing and capacity model of the hardware-aided PIR deployment.

    The paper (§7.1, Table 2) does not run queries on a live IBM 4764 —
    it "strictly simulates" the co-processor from published device
    constants.  This module is that simulation: every retrieval's
    latency is derived from the disk, SCP and network parameters, with
    the Williams–Sion amortized O(log² N) page-operation count
    calibrated to the protocol's reported absolute speed (≈1 s per
    retrieval from a 1 GByte file on the IBM 4764).

    The SCP memory bound [c·√N] (§3.2, c = 10) yields the maximum
    supported file size; with 32 MByte of SCP RAM this lands at the
    2.5 GByte limit quoted in the paper. *)

type t = {
  page_size : int;            (** bytes per disk page *)
  disk_seek : float;          (** seconds per random page access *)
  disk_rate : float;          (** disk read/write, bytes/second *)
  scp_io_rate : float;        (** SCP read/write, bytes/second *)
  scp_crypto_rate : float;    (** SCP encryption/decryption, bytes/second *)
  bandwidth : float;          (** client link, bytes/second *)
  rtt : float;                (** client link round-trip time, seconds *)
  scp_memory : int;           (** SCP RAM, bytes *)
  pir_memory_factor : int;    (** the c in c·√N *)
  pir_calibration : float;    (** page-ops per retrieval = calibration·log2(N)² *)
  client_decode_rate : float;
      (** bytes/second the handheld client decodes delivered pages at
          (decrypt + CRC + record parse) *)
}

val ibm4764 : t
(** Table 2: 4 KByte pages, 11 ms seek, 125 MB/s disk, 80 MB/s SCP I/O,
    10 MB/s SCP crypto, 48 KByte/s & 700 ms RTT 3G link, 32 MByte SCP
    RAM, c = 10, calibration 0.26 (≈1 s/page on a 1 GByte file),
    200 KByte/s client decode (a 2010-era handheld's AES + parse). *)

val page_op_seconds : t -> float
(** One secure page operation: seek + disk transfer + SCP transfer +
    decrypt + re-encrypt of one page. *)

val pir_fetch_seconds : t -> file_pages:int -> float
(** Amortized latency of one private page retrieval from a file of
    [file_pages] pages. *)

val pyramid_levels : cache_capacity:int -> file_pages:int -> int
(** Depth of the hierarchical (pyramid) store over a file: the smallest
    [L] with [cache_capacity · 4{^L} ≥ file_pages].  The single source
    of the layout formula — {!Pyramid_store.create} sizes its hierarchy
    with it, and {!pir_batch_fetch_seconds} charges marginal batch
    probes against it, so the modeled per-probe touch count equals the
    executed one by construction.
    @raise Invalid_argument when [cache_capacity < 1] or
    [file_pages < 1]. *)

val pyramid_level : cache_capacity:int -> file_pages:int -> depth:int -> int * int
(** [(cap, dummies)] of level [j = depth] (from 1) of that store, the
    most it can ever hold: [cap = 3c · 4{^j-1}] items at a shallower
    level (three merges of at most [c · 4{^j-1}] distinct pages before a
    deeper flush empties it) and [cap = file_pages] at the deepest (a
    merge keeps one copy per page), in [cap + dummies] slots, with
    [dummies = c · 4{^j-1}], one per read between two of its rebuilds.
    Both are functions of [c] and [file_pages] alone (DESIGN.md, "The
    pyramid layout").  [cap + dummies] is the domain of the level's
    Feistel permutation.
    @raise Invalid_argument as {!pyramid_levels}, or when [depth] is not
    in [[1, pyramid_levels]]. *)

val batch_probe_touches : levels:int -> batch:int -> int
(** [(batch - 1) · levels] — the marginal physical slot touches a merged
    width-[batch] pass executes beyond the first member's full pass (one
    probe per hierarchy level per extra member).  This count is the
    basis of {!pir_batch_fetch_seconds}'s marginal term, and
    [test_batch.ml] asserts the oblivious stores execute exactly this
    many.
    @raise Invalid_argument when [levels < 0] or [batch < 1]. *)

val pir_batch_fetch_seconds : t -> file_pages:int -> levels:int -> batch:int -> float
(** Total latency of [batch] same-round retrievals from one file served
    in a single merged pass over the oblivious store.  The calibrated
    log²N term pays for the pass (level scans plus amortized reshuffle)
    once; the marginal term is derived from the executed page-touch
    count {!batch_probe_touches}: each request beyond the first adds
    [levels] page operations — one probe per hierarchy level, as the
    merged level scans actually execute — capped at the full-pass cost
    (a batch can always fall back to independent passes).  [levels] is
    the serving store's hierarchy depth ({!Pyramid_store.level_count},
    or {!pyramid_levels} when simulating).
    [batch = 1] equals {!pir_fetch_seconds} exactly. *)

val decode_seconds : t -> bytes:int -> float
(** Client-side decode time (decrypt + CRC + record parse) for [bytes]
    of delivered pages at {!field-client_decode_rate}.  Callers must
    price {e plan-fixed} byte counts (slot count × page size), never
    the real delivered payloads, so the quantity stays public.
    @raise Invalid_argument when [bytes < 0]. *)

val pipelined_response_seconds : fetch:float -> decode:float -> depth:int -> float
(** Steady-state per-batch response of a depth-[d] pipelined stream of
    identical batches: [max fetch ((fetch + decode) / d)] — the serial
    SCP bounds completion spacing below by the fetch pass, while a
    window of [d] in-flight batches divides the synchronous round
    (fetch {e plus} decode) by [d].  [depth = 1] is exactly the
    synchronous sum, the overlap-free baseline.
    @raise Invalid_argument when [depth < 1] or a phase cost is
    negative. *)

val queueing_delay_seconds : enqueued:float -> dispatched:float -> float
(** [dispatched - enqueued] on the serving frontend's virtual clock —
    the queueing component of a served query's latency.  Both instants
    are public events (arrival and batch dispatch), so the delay is
    publicly derivable by construction.
    @raise Invalid_argument when [dispatched < enqueued]. *)

val batch_response_seconds :
  t -> cache_capacity:int -> file_pages:int -> batch:int -> float
(** {!pir_batch_fetch_seconds} with the hierarchy depth derived from
    {!pyramid_levels} over the same layout constants the pyramid store
    uses — the service-time estimate the multi-tenant scheduler plans
    batch widths against, guaranteed to agree with the executed charge.
    @raise Invalid_argument when [cache_capacity < 1], [file_pages < 1]
    or [batch < 1]. *)

val retry_backoff_seconds : base:float -> attempt:int -> float
(** [base · 2{^attempt-1}] — the deterministic exponential backoff
    charged before retry number [attempt] (1-based).  Owned here so
    [Psp_core.Engine]'s retry loop and the response-time accounting of
    [Degraded] answers agree on the modeled extra seconds.
    @raise Invalid_argument if [attempt < 1]. *)

val latency_spike_seconds : t -> float
(** Extra delay one [pir.replica.latency] fault adds to a fetch:
    10 RTTs — a stalling-but-alive replica. *)

val timeout_seconds : t -> float
(** Cumulative spike delay at which a client declares the replica timed
    out and fails over: 25 RTTs. *)

val failover_seconds : t -> attempt:int -> float
(** Modeled cost of abandoning a replica and re-handshaking with the
    next one, with exponential backoff in the number of replicas
    already abandoned ([attempt], 1-based). *)

val transfer_seconds : t -> bytes:int -> float
(** Client-link transmission time for a payload. *)

val max_file_bytes : t -> int
(** Largest file the PIR interface supports: the N at which c·√N pages
    exhaust SCP memory. *)

val supports_file : t -> bytes:int -> bool

val scp_memory_needed : t -> file_pages:int -> int
(** c·√N pages, in bytes. *)

val with_max_file : t -> bytes:int -> t
(** A model whose SCP memory is resized so that [max_file_bytes] is
    (approximately) the given bound.  Scaled-down experiment runs use
    this to shrink the 2.5 GByte limit together with the networks, so
    "file too large for the PIR interface" events reproduce at scale. *)
