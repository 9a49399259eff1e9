(** Equal-sized disk pages organized in named files.

    The LBS database (§3.1) is a set of files stored as sequences of
    equal-sized pages; the PIR interface retrieves one page at a time
    and the adversary observes only (file, round) per retrieval.  This
    module is the in-memory model of such files: page payloads are real
    serialized bytes, and per-page payload lengths are recorded so the
    experiments can report page utilization (Figure 8a) and database
    sizes from actual encodings.

    Integrity: every page carries a CRC-32 computed when it is appended.
    The PIR server consults it ({!page_crc}) only after a page fails its
    tag, to tell bit rot from tampering, and the on-disk format stores
    it per page plus a whole-file checksum, so
    {!load} detects torn writes and bit rot as a typed {!error} instead
    of crashing.  {!save} is atomic (temp file + rename): a fault
    mid-save never clobbers an existing good file.

    Authenticity: a CRC defeats bit rot, not a Byzantine host — whoever
    flips page bits can recompute the checksum.  {!seal} computes a
    per-page HMAC-SHA-256 tag under a subkey derived from the
    publisher's master key (which the host never sees), bound to the
    file name and page number; {!authenticate} is the client-side gate
    that makes tampering a detectable, typed condition distinct from
    bit rot.  It is the one gate a served page passes.  Tags travel
    with the file ({!save}/{!load}). *)

type t

type error = Corrupt of { path : string; reason : string }
(** A malformed, truncated or checksum-failing on-disk file. *)

exception Error of error

val create : name:string -> page_size:int -> t
(** Empty file.  @raise Invalid_argument if [page_size <= 0]. *)

val name : t -> string
val page_size : t -> int
val page_count : t -> int

val size_bytes : t -> int
(** [page_count * page_size] — the on-disk footprint. *)

val append : t -> bytes -> int
(** Add one page holding the given payload (padded with zeros to the
    page size); returns its page number.
    @raise Invalid_argument if the payload exceeds the page size. *)

val append_blank : t -> int
(** Add an all-zero page (used to round files up to layout boundaries). *)

val read : t -> int -> bytes
(** Full page content (payload plus padding), [page_size] bytes.
    @raise Invalid_argument on an out-of-range page number. *)

val payload : t -> int -> bytes
(** Only the stored payload of a page. *)

val payload_length : t -> int -> int

val page_crc : t -> int -> int
(** CRC-32 of the padded page, recorded at append time.
    @raise Invalid_argument on an out-of-range page number. *)

val verify_page : t -> int -> bytes -> bool
(** [verify_page t no page] checks a (purported) copy of page [no]
    against its recorded checksum.  No fetch runs it: a CRC the host
    can recompute proves nothing against the host, so fetches gate on
    {!authenticate} alone.
    @raise Invalid_argument on an out-of-range page number. *)

val tag_size : int
(** Bytes per authentication tag (32: HMAC-SHA-256). *)

val seal : t -> key:bytes -> unit
(** [seal t ~key] computes a per-page authentication tag
    [HMAC(derive(key, "page-auth:" ^ name), u32 page_no || page)]
    over every (padded) page — the publisher's pack-time step.
    A no-op when already sealed under the same key; a different key
    recomputes every tag.  Any later {!append} invalidates the seal
    (and a {!load}ed file reseals on first use, reproducing its stored
    tags when the key is the pack key). *)

val sealed : t -> bool

val page_tag : t -> int -> bytes
(** Tag recorded by {!seal}.
    @raise Invalid_argument if out of range or not sealed. *)

val authenticate : t -> key:bytes -> int -> bytes -> bool
(** [authenticate t ~key no page] checks a (purported) copy of page
    [no] against its pack-time tag — the client's authenticity gate on
    every PIR fetch.  [false] for an unsealed file, a wrong-sized page,
    or any forged/altered content; constant-time tag comparison.
    @raise Invalid_argument on an out-of-range page number. *)

val utilization : t -> float
(** Mean fraction of page bytes holding payload; 0 for an empty file. *)

val iter_pages : t -> (int -> bytes -> unit) -> unit

val save : t -> path:string -> unit
(** Serialize to disk (magic, name, page size, per-page payloads with
    their CRCs, whole-file checksum — padding is not stored and is
    reconstructed on load).  The write is atomic: bytes go to
    [path ^ ".tmp"], renamed over [path] only when complete.

    Failpoints: [storage.page_file.save.transient] (raises
    {!Psp_fault.Fault.Injected} before anything is written) and
    [storage.page_file.save.torn] (persists only a prefix of the blob,
    simulating a torn write that {!load} must catch). *)

val load : path:string -> (t, error) result
(** Read a file back.  Any malformation — bad magic, truncation, a
    flipped bit anywhere (caught by the whole-file and per-page
    checksums), trailing garbage — yields [Error (Corrupt _)]; no
    exception escapes for malformed input.
    @raise Sys_error if the file cannot be opened at all. *)

val load_exn : path:string -> t
(** [load], raising {!Error} on a malformed file. *)
