(** The LBS with its secure co-processor — the server side of Figure 1.

    The server hosts a set of page files (the scheme's database) and
    exposes the two access paths of the architecture:

    - {!Session.fetch_batch}: one page per member session via the PIR
      interface, a single query being the width-1 case.  The host learns
      only (round, file) and the batch width; latency follows
      {!Cost_model}.
    - {!Session.download}: a whole file in plaintext over the SSL link —
      only ever used for the public header, which every client fetches.
    - {!Session.plain_fetch}: an unsecured page read, used exclusively
      by the non-private OBF baseline for comparison.

    Two execution modes: [`Simulated] serves pages straight from the
    page files (fast — used by the benchmark harness; costs and traces
    are identical), and [`Pyramid] routes every PIR fetch through the
    Williams–Sion-style hierarchical store ({!Pyramid_store}) — the
    paper's PIR black box, used by the privacy tests, the examples and
    the measured benchmark. *)

type t

type mode = [ `Simulated | `Pyramid ]

exception File_too_large of { file : string; bytes : int; limit : int }
(** Raised at registration when a file exceeds what the SCP can support
    (§3.2) — this is how PI "becomes inapplicable" on large networks. *)

exception Page_corrupt of { file : string; page : int }
(** Raised by {!Session.fetch_batch} and {!Session.download} when a
    retrieved page fails its CRC-32
    check against the checksum recorded at append time — corruption in
    storage or in flight, detected before the payload reaches protocol
    code.  Clients treat it like a transient fault and re-fetch. *)

exception Tampered of { file : string; page : int }
(** Raised by {!Session.fetch_batch} and {!Session.download} when a
    retrieved page passes the CRC but
    fails its pack-time HMAC tag ({!Psp_storage.Page_file.authenticate})
    — a Byzantine host altered content and recomputed the checksum.
    Unlike {!Page_corrupt} this is {e not} retried in place: the replica
    is failed over (a tampering host would tamper again). *)

exception Replica_down of { replica : int }
(** The replica refused the exchange (failpoint [pir.replica.down]).
    Fails the replica over. *)

exception Replica_timeout of { replica : int; seconds : float }
(** Cumulative latency-spike delay (failpoint [pir.replica.latency])
    crossed {!Cost_model.timeout_seconds}.  Fails the replica over. *)

val create :
  ?mode:mode ->
  ?replica:int ->
  cost:Cost_model.t ->
  key:bytes ->
  Psp_storage.Page_file.t list ->
  t
(** [replica] (default 0) is the server's public index in its replica
    set.  Files not yet {!Psp_storage.Page_file.sealed} are sealed with
    [key] at registration — the pack-time authentication step.
    @raise File_too_large per the cost model's [max_file_bytes].
    @raise Invalid_argument on duplicate file names. *)

val mode : t -> mode
val cost : t -> Cost_model.t

val replica : t -> int
(** Public replica index (0 when standalone). *)

val key : t -> bytes
(** The publisher master key the client verifies tags under. *)

val file : t -> string -> Psp_storage.Page_file.t
(** @raise Not_found for an unregistered name. *)

val file_names : t -> string list
val database_bytes : t -> int
(** Total size across all files. *)

val executed_slot_touches : t -> int
(** Physical slot touches the server's oblivious stores have executed
    since creation, summed over files (0 in [`Simulated] mode, which
    instantiates no store).  A width-k {!Session.fetch_batch} adds
    exactly {!Cost_model.batch_probe_touches} touches beyond the first
    member's pass — the identity the batch benchmark and
    [test_batch.ml] assert. *)

val executed_level_scans : t -> int
(** Merged level scans the server's pyramid stores have executed since
    creation, summed over files (0 in [`Simulated] mode).  The executed-side amortization: a
    width-k batch runs one scan per level per chunk instead of k. *)

val retained_physical_events : t -> int
(** Host-visible events the server's stores still hold in their
    {!Pyramid_store.physical_trace}, summed over files.  Always 0
    between passes: each {!Session.fetch_batch} clears its store's trace
    when the pass is done, so a serving process keeps no growing event
    log (the touch and scan counters above are unaffected). *)

module Session : sig
  type server := t
  type t

  val start : ?share:int -> server -> t
  (** Opens the SSL connection; the query starts in round 1.  [share]
      (default 1) is the number of batched sessions this round trip is
      multiplexed over: a merged batch round is one message exchange, so
      each member is charged [rtt / share]. *)

  val next_round : ?share:int -> t -> unit
  (** Advance to the next round of the protocol (adds one RTT, split
      over [share] batched sessions as in {!start}). *)

  val round : t -> int

  val fetch_batch : file:string -> (t * int) array -> bytes array
  (** Private page retrieval via the SCP: one merged oblivious-store
      pass serving same-round requests of concurrent sessions (the
      {!Psp_pir.Batcher} building block; a single query is a width-1
      batch).  Every returned page is verified against its recorded
      CRC-32 and then against its pack-time HMAC tag before release.

      Each member's attempt is accounted and recorded in its own trace
      {e before} any fault can fire: a failed retrieval is still part of
      the adversary's view, and a fault — with the retry that re-issues
      every member's identical request — adds the same events to every
      member, so batched sessions stay mutually trace-identical under
      any fault schedule.

      The pass cost {!Cost_model.pir_batch_fetch_seconds} is split
      evenly across members; at width 1 it equals
      {!Cost_model.pir_fetch_seconds}.  In [`Pyramid] mode the k probes
      are {e executed} as one merged pass ({!Pyramid_store.fetch_many}):
      one sequential scan per level serves every member, per-member slot
      traces stay byte-identical to sequential execution, and the
      marginal page-touch count equals the simulated cost model's
      {!Cost_model.batch_probe_touches} basis by construction (both
      sides derive the depth from {!Cost_model.pyramid_levels}).

      Failpoints, in the order they are consulted:
      [pir.fetch.transient] (raises {!Psp_fault.Fault.Injected}),
      [pir.replica.down] (raises {!Replica_down}) and
      [pir.replica.latency] (adds {!Cost_model.latency_spike_seconds} to
      every member; past {!Cost_model.timeout_seconds} cumulative it
      raises {!Replica_timeout}) once per pass; then per member
      [pir.fetch.corrupt] (flips a bit, which the checksum gate converts
      into {!Page_corrupt}) and [pir.fetch.tamper] (flips a bit {e after}
      the checksum gate — a Byzantine host recomputing the CRC — which
      the tag gate converts into {!Tampered}).

      @raise Not_found on unknown file; Invalid_argument if the sessions
      belong to different servers or a page is out of range;
      {!Page_corrupt}, {!Tampered}, {!Replica_down} and
      {!Replica_timeout} abort the whole batch. *)

  val download : file:string -> t array -> bytes array
  (** Plaintext download of an entire (public) file — the header — for
      each of the given sessions of one server as one exchange (a single
      query passes one session).  Every member is charged the transfer
      and records its own plain-download trace event before any fault
      can fire, so batched sessions stay mutually trace-identical.
      Every page passes the same CRC and HMAC gates as {!fetch_batch}:
      the header fixes the plan, the KD-tree splits and the scheme tag,
      so it is authenticated like any other byte from the host.

      Failpoints: [pir.download.transient] (raises
      {!Psp_fault.Fault.Injected} before any page is read), then per
      page [pir.download.tamper] (flips a bit after the checksum gate,
      which the tag gate converts into {!Tampered}).

      @raise Invalid_argument if the sessions belong to different
      servers; {!Page_corrupt} on a checksum failure; {!Tampered} on a
      tag failure. *)

  val plain_fetch : t -> file:string -> page:int -> bytes
  (** Unsecured read: the LBS sees the page number (OBF baseline only). *)

  val add_server_compute : t -> float -> unit
  (** Charge server CPU seconds (OBF's path computations). *)

  val note_retry : t -> backoff:float -> unit
  (** Account one recovery attempt: counts a retry and charges its
      backoff delay to both the communication time and the session's
      recovery overhead.  Called by the client's retry loop; the
      backoff must depend only on the attempt number (see the
      oblivious-retry argument in DESIGN.md). *)

  val accounted_seconds : t -> float
  (** Server-side cost accounted so far — [pir + comm + server_cpu],
      the same total the eventual {!finish} stats report, readable
      mid-session.  The engine reports it after a walk's last fetch so
      the serving scheduler can place the batch's fetch phase on its
      modeled timeline.  A public aggregate of plan-determined
      charges. *)

  type stats = {
    rounds : int;
    pir_seconds : float;        (** time inside the PIR protocol *)
    comm_seconds : float;       (** SSL transfer + per-round RTTs *)
    server_cpu_seconds : float; (** plaintext processing (OBF) *)
    pir_fetches : (string * int) list;  (** per-file private page counts *)
    retries : int;              (** recovery attempts after faults *)
    recovery_seconds : float;   (** backoff time spent recovering *)
    trace : Trace.t;            (** the adversary's view *)
  }

  val finish : t -> stats
end
