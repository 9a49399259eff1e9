(** The adversary's view of a query execution.

    What the LBS observes (§3.1, proof of Theorem 1) is exactly: for
    each processing round, which files were touched and how many page
    operations each received — never *which* pages (the PIR protocol
    hides that), never the payloads (SSL hides those).  A scheme
    achieves the paper's security objective iff every query produces an
    {!equal} trace; the test suite checks this property on every scheme
    against random query workloads. *)

type event =
  | Pir_fetch of { round : int; file : string }
      (** one private page retrieval *)
  | Plain_download of { round : int; file : string; pages : int }
      (** a non-private bulk download (the header file) *)

type t

val create : unit -> t
(** An empty trace. *)

val record : t -> event -> unit
(** Append one observed event. *)

val events : t -> event list
(** In chronological order. *)

val length : t -> int
(** Number of recorded events. *)

val equal : t -> t -> bool
(** Event-for-event equality — the indistinguishability predicate. *)

val fingerprint : t -> string
(** A stable digest of the event sequence; equal traces have equal
    fingerprints (handy for asserting over large workloads). *)

val per_round_file_counts : t -> ((int * string) * int) list
(** ((round, file), pir-page-count) pairs sorted by round then file —
    the published "query plan" shape. *)

val pp : Format.formatter -> t -> unit
(** Per-round rendering of the view, for [pspc query]. *)
