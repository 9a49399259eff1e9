(** Response-time decomposition (§7.1, Table 3).

    The paper reports elapsed time from query submission to the client
    holding the shortest path, split into (i) server processing — PIR
    time for the private schemes, plaintext query processing for OBF —
    (ii) communication time and (iii) client-side computation. *)

type t = {
  pir_seconds : float;  (** SCP time for the private page retrievals *)
  comm_seconds : float;  (** simulated transfer time (3G link) *)
  server_cpu_seconds : float;  (** plaintext server work (OBF only) *)
  client_seconds : float;  (** client-side decode + Dijkstra *)
  decode_seconds : float;
      (** modeled handheld decode time for the plan-fixed delivered byte
          volume ({!Psp_pir.Cost_model.decode_seconds}); reported
          separately by the pipelined scheduler, whose overlap analysis
          needs the decode phase distinguished from [client_seconds]
          (the measured host-CPU share); 0 elsewhere *)
  queue_seconds : float;
      (** time spent waiting in the serving frontend's queue before the
          batch that served the query was dispatched
          ({!Psp_pir.Cost_model.queueing_delay_seconds}); 0 for direct
          queries that never pass through a scheduler *)
}

val total : t -> float
(** Sum of the components: the reported response time. *)

val of_result : Client.result -> t
(** Decomposition of one query's result (from the session's cost-model
    accounting plus the measured client time). *)

val zero : t
(** All components zero — the fold seed for {!add}. *)

val of_replicated : Client.replicated -> t array
(** Per-member decomposition of a replicated query: the serving
    attempt, {e plus} every abandoned attempt's accounted cost, {e
    plus} the modeled failover seconds (charged as communication time)
    — so [Degraded] answers report the recovery overhead instead of
    the clean-run cost. *)

val with_queue : seconds:float -> t -> t
(** Replace the queueing component (the scheduler charges it once per
    served query).
    @raise Invalid_argument when [seconds < 0]. *)

val with_decode : seconds:float -> t -> t
(** Replace the modeled-decode component (the pipelined scheduler
    charges it once per served query).
    @raise Invalid_argument when [seconds < 0]. *)

val add : t -> t -> t
(** Component-wise sum. *)

val scale : float -> t -> t
(** Component-wise scaling. *)

val mean : t list -> t
(** Component-wise mean (the 1,000-query workload average). *)

val pp : Format.formatter -> t -> unit
