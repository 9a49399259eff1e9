(** Published query plans (§3.1, §5.4).

    The plan is part of the public header: it dictates, for every query,
    the number of rounds, which files are touched in each round and how
    many pages are fetched from each — the invariant that makes all
    queries indistinguishable (Theorem 1).  Clients pad their real needs
    with dummy retrievals up to the plan and never fetch past it: a query
    that needs more than the plan fails closed.

    Per scheme:
    - CI: header; 1 page F_l; [fi_span] pages F_i; [m] + 2 pages F_d.
    - PI: header; 1 page F_l; [fi_span] pages F_i and 2 pages F_d in the
      same round (3 rounds total).
    - HY: header; 1 page F_l; [r] pages of the combined index+data file;
      [round4] further pages of the combined file.
    - PI*: PI with [cluster] pages per region: 2·cluster F_d pages.
    - LM: header; then data pages one region per round (two in the first
      data round), [total_data_pages] in total.
    - AF: like LM but regions span [pages_per_region] pages each;
      [max_regions] regions fetched in total.

    A freshly built LM/AF plan budgets the whole data file;
    {!Psp_core.Calibrate} may tighten it to a workload's maximum. *)

type t =
  | Ci of { fi_span : int; m : int }
  | Pi of { fi_span : int }
  | Hy of { r : int; round4 : int }
  | Pi_star of { fi_span : int; cluster : int }
  | Lm of { total_data_pages : int }
  | Af of { pages_per_region : int; max_regions : int }

type step =
  | Next_round  (** advance the protocol round (one RTT) *)
  | Fetch_window of { file : string; count : int }
      (** [count] consecutive private fetch slots against [file]; a
          conforming client fills every slot with a real or dummy page *)
  | Decode_barrier of { label : string }
      (** a client-local decode/solve point between fetches — free of
          server-visible effects, present so the execution engine can
          place its telemetry spans at plan-fixed positions *)

val steps : t -> pages_per_region:int -> step list
(** The plan's operational form — the exact per-round fetch-slot sequence
    a conforming execution must produce (the header download of round 1
    is implicit).  {!Psp_core.Privacy.expected_trace} and the execution
    engine both consume this list, making it the single source of truth
    for Theorem 1's public query plan. *)

val pir_fetches : t -> (string * int) list
(** Expected total private page fetches per file name (files named
    "lookup", "index", "data", "combined") — the budget a conforming
    execution must consume exactly. *)

val total_pir_fetches : t -> int

val rounds : t -> int
(** Total protocol rounds including the header round. *)

val encode : t -> bytes
val decode : bytes -> t
(** @raise Invalid_argument on malformed input. *)

val pp : Format.formatter -> t -> unit
