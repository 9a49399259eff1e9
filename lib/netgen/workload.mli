(** Query workload generation.

    The paper's evaluation uses uniformly random source–destination
    pairs (§7.1); real deployments see skewed patterns.  Because every
    query is padded to the same plan, the private schemes' response
    times are *identical* across all of these distributions — a property
    the benchmark's extras section demonstrates with this module. *)

type distribution =
  | Uniform
      (** independent uniform endpoints (the paper's workload) *)
  | Local of { radius : float }
      (** destination within Euclidean [radius] of the source —
          neighbourhood errands *)
  | Commute of { hubs : int }
      (** destinations concentrated near a few hub nodes — rush-hour
          traffic into business districts *)
  | Repeated of { distinct : int }
      (** the same few queries over and over — exactly the pattern
          access-pattern attacks exploit against weaker schemes *)

val generate :
  Psp_graph.Graph.t -> distribution -> count:int -> seed:int -> (int * int) array
(** [count] queries with s <> t; deterministic in [seed]. *)

val describe : distribution -> string

(** {1 Arrival processes}

    When queries are {e served} rather than replayed, the serving
    frontend's queueing behaviour depends on when they arrive.  An
    arrival process turns a query count into nondecreasing arrival
    offsets (model seconds from the start of the run) for the
    scheduler's virtual clock.  Arrival times are public: the server
    trivially observes when requests reach it. *)

type arrival_process =
  | Steady of { rate : float }
      (** one query every [1/rate] seconds — a constant drip *)
  | Poisson of { rate : float }
      (** memoryless arrivals at [rate] per second (exponential gaps) *)
  | Bursts of { period : float; mean_size : int }
      (** a burst every [period] seconds whose size varies uniformly in
          [[1, 2·mean_size - 1]] — rush-hour clumps that no single fixed
          batch width fits *)

val arrivals : arrival_process -> count:int -> seed:int -> float array
(** [count] nondecreasing arrival offsets; deterministic in [seed].
    @raise Invalid_argument on a negative count or non-positive
    rate/period/size. *)

val arrival_of_string : string -> (arrival_process, string) result
(** Parse a CLI spec: ["steady:2"], ["poisson:0.5"], or
    ["bursts:10x8"] (a burst every 10 s of mean size 8). *)
