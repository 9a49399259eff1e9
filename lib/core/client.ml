module Session = Psp_pir.Server.Session
module Batcher = Psp_pir.Batcher
module H = Psp_index.Header
module Obs = Psp_obs.Obs

(* The client facade: header download, region location and scheme
   dispatch.  The retrieval protocol itself lives in {!Engine} (one
   plan-walker for every scheme) and the per-scheme state machines under
   schemes/ — this module only assembles results and telemetry. *)

(* Telemetry (DESIGN.md §5): query/status totals and whole-query
   latency.  Span names below ("query", "plan", ...) are static strings,
   and every recorded value is either a constant delta or the wall-clock
   of a whole oblivious phase whose work the public plan fixes. *)
let m_queries = Obs.counter "client.queries"
let m_served = Obs.counter "client.status.served"
let m_degraded = Obs.counter "client.status.degraded"
let m_unavailable = Obs.counter "client.status.unavailable"
let m_unknown = Obs.counter "client.status.unknown_scheme"
let m_query_seconds = Obs.histogram "client.query_seconds"
let m_batches = Obs.counter "client.batches"
let m_batch_width = Obs.histogram "client.batch_width"

type retry_policy = Engine.retry_policy = {
  max_attempts : int;
  base_backoff : float;
}

let default_retry = Engine.default_retry

type status =
  | Served
  | Degraded of { retries : int }
  | Unavailable of { point : string; attempts : int }
  | Unknown_scheme of { scheme : string }

exception Replica_failed of {
  replica : int;
  reason : string;
  stats : Psp_pir.Server.Session.stats array;
}

type result = {
  path : (int list * float) option;
  stats : Psp_pir.Server.Session.stats;
  client_seconds : float;
  regions_fetched : int;
  status : status;
}

type endpoints = { sx : float; sy : float; tx : float; ty : float }

(* ------------------------------------------------------------------ *)

let locate header (e [@secret]) =
  { Engine.rs = H.locate header ~x:e.sx ~y:e.sy;
    rt = H.locate header ~x:e.tx ~y:e.ty;
    sx = e.sx;
    sy = e.sy;
    tx = e.tx;
    ty = e.ty }
  [@@oblivious]

let status_of_stats stats =
  match stats.Session.retries with
  | 0 ->
      Obs.incr m_served;
      Served
  | retries ->
      Obs.incr m_degraded;
      Degraded { retries }

let unavailable_result stats client_seconds ~point ~attempts =
  Obs.incr m_unavailable;
  { path = None;
    stats;
    client_seconds;
    regions_fetched = 0;
    status = Unavailable { point; attempts } }

let plan_exceeded = "plan.exceeded"

(* [None] is an LM/AF member the plan could not finish.  Whether a member
   finished depends on the query, so both records are built and counted
   before the one selection that reads it. *)
let member_result ~client_seconds stats (answer [@secret]) =
  let path, regions_fetched = Option.value answer ~default:(None, 0) in
  let status = status_of_stats stats in
  let served = { path; stats; client_seconds; regions_fetched; status } in
  let exceeded =
    { served with status = Unavailable { point = plan_exceeded; attempts = 0 } }
  in
  match
    (answer [@leak_ok "client-local, after every session closed: picks a built record"])
  with
  | Some _ -> served
  | None -> exceeded
  [@@oblivious]

let unknown_result stats client_seconds ~scheme =
  Obs.incr m_unknown;
  { path = None;
    stats;
    client_seconds;
    regions_fetched = 0;
    status = Unknown_scheme { scheme } }

(* ------------------------------------------------------------------ *)
(* The one query path: N same-plan queries walk the plan in lockstep,
   each fetch slot becoming one merged oblivious-store pass (Batcher).
   A single query is the width-1 batch. *)

let query_batch ?(retry = default_retry)
    ?(pacing = Engine.sequential) server (queries : endpoints array) =
  (let width = Array.length queries in
   if width = 0 then [||]
   else begin
     Obs.incr m_batches;
     Obs.observe m_batch_width (float_of_int width);
     Obs.add m_queries width;
     Obs.with_span "query" (fun () ->
         let t0 =
           (Sys.time ())
           [@leak_ok
             "wall-clock sample for the public stats records; it never influences \
              the fetch schedule"]
         in
         let batcher = Batcher.start server ~width in
         (* every member downloads the header over its own session, so each
            per-member trace carries the same plain download a width-1
            query's would; the header download and region location fix
            the public query plan before any oblivious round begins, and
            a download fault retries batch-granularly like a fetch *)
         let outcome =
           (match
              let header, psize =
                Obs.with_span "plan" (fun () ->
                    let pages =
                      Engine.with_retry ~policy:retry
                        ~on_retry:(Batcher.note_retry batcher) (fun () ->
                          Session.download ~file:"header" (Batcher.sessions batcher))
                    in
                    (H.of_pages pages, Bytes.length pages.(0)))
              in
              match Registry.find header.H.scheme header.H.plan with
              | None -> `Unknown header.H.scheme
              | Some scheme ->
                  let ctx = { Engine.header; psize } in
                  let qs = Array.map (locate header) queries in
                  `Answers (Engine.run_batch ~pacing scheme batcher ~policy:retry ctx qs)
            with
           | v -> Ok v
           | exception Engine.Gave_up { point; attempts } ->
               Error (`Gave_up (point, attempts))
           | exception e when Engine.failover_class e <> None ->
               Error (`Failover (Option.get (Engine.failover_class e))))
           [@leak_ok
             "the exception arms are steered by the fault schedule and retry budget \
              alone (with_retry re-issues identical requests); a batch-granular \
              failure degrades every member identically, keeping their partial \
              traces mutually equal and the recovery cost observable"]
         in
         let stats = Batcher.finish batcher in
         let client_seconds =
           ((Sys.time () -. t0) /. float_of_int width)
           [@leak_ok
             "wall-clock sample for the public stats records; the sessions are \
              already finished"]
         in
         Obs.observe m_query_seconds client_seconds;
         (match outcome with
         | Ok (`Answers answers) -> Array.map2 (member_result ~client_seconds) stats answers
         | Ok (`Unknown scheme) ->
             Array.map (fun s -> unknown_result s client_seconds ~scheme) stats
         | Error (`Gave_up (point, attempts)) ->
             Array.map
               (fun s -> unavailable_result s client_seconds ~point ~attempts)
               stats
         | Error (`Failover reason) ->
             (* the sessions were finished first: the abandoned attempt's
                partial traces and accounted costs travel with the
                exception so the failover loop can charge them *)
             raise
               (Replica_failed
                  { replica = Psp_pir.Server.replica server; reason; stats }))
         [@leak_ok
           "result assembly happens after every session closed; the server \
            observes nothing from this match"])
   end)
  [@leak_ok
    "the batch width is public (the server trivially observes how many sessions \
     it serves); the empty-batch shortcut issues no request at all"]
  [@@oblivious]

(* ------------------------------------------------------------------ *)
(* Replicated serving: whole-plan replay failover over a Replica_set.
   A failed replica is never resumed mid-plan — the entire public plan
   (header download included) is replayed against the next healthy one,
   so each replica observes either a complete plan trace or a
   fault-schedule-determined prefix, both query-independent.  Every
   branch below is steered by statuses and exceptions that are pure
   functions of the fault schedule, never by query content. *)

module RS = Psp_pir.Replica_set

type abandoned = {
  on_replica : int;
  reason : string;
  attempt_stats : Psp_pir.Server.Session.stats array;
}

type replicated = {
  results : result array;
  replica : int;
  failovers : int;
  failover_seconds : float;
  abandoned : abandoned list;
}

(* a query that survived via failover is Degraded even when its final
   attempt ran clean: the recovery cost is real and must be reported *)
let degrade ~failovers r =
  if failovers = 0 then r
  else
    match r.status with
    | Served ->
        Obs.incr m_degraded;
        { r with status = Degraded { retries = failovers } }
    | Degraded { retries } -> { r with status = Degraded { retries = retries + failovers } }
    | Unavailable _ | Unknown_scheme _ -> r

let stats_seconds (s : Session.stats) =
  s.Session.pir_seconds +. s.Session.comm_seconds +. s.Session.server_cpu_seconds

let replicated_run ?max_failovers rset run =
  let max_failovers = Option.value max_failovers ~default:(3 * RS.width rset) in
  let cost = Psp_pir.Server.cost (RS.server rset 0) in
  (* a plan overrun is the query's own: replaying it would show other replicas which
     query overran *)
  let gave_up r =
    match r.status with Unavailable { point; _ } -> point <> plan_exceeded | _ -> false
  in
  let rec go ~failovers ~fo_seconds ~abandoned ~last =
    let finished ~replica results =
      { results;
        replica;
        failovers;
        failover_seconds = fo_seconds;
        abandoned = List.rev abandoned }
    in
    let give_up () =
      match last with
      | Some (replica, results) -> finished ~replica results
      | None -> (
          match abandoned with
          | [] -> raise RS.No_replica_available
          | { on_replica; reason; attempt_stats } :: _ ->
              (* every attempt died mid-plan: report the newest abandoned
                 attempt's partial stats as the Unavailable results.
                 [failovers] counted one failure per attempt, so it is
                 exactly the number of plan attempts made *)
              finished ~replica:on_replica
                (Array.map
                   (fun s ->
                     unavailable_result s 0.0 ~point:reason ~attempts:failovers)
                   attempt_stats))
    in
    if failovers > max_failovers then give_up ()
    else
      match RS.select rset with
      | None -> give_up ()
      | Some i -> (
          match run (RS.server rset i) with
          | results ->
              Array.iter (fun r -> RS.advance rset (stats_seconds r.stats)) results;
              if Array.length results > 0 && Array.for_all gave_up results then begin
                (* retry exhaustion is a failed exchange too: shun the
                   replica and replay the whole plan elsewhere *)
                RS.record_failure rset i;
                let fo =
                  Psp_pir.Cost_model.failover_seconds cost ~attempt:(failovers + 1)
                in
                RS.advance rset fo;
                go ~failovers:(failovers + 1) ~fo_seconds:(fo_seconds +. fo) ~abandoned
                  ~last:(Some (i, results))
              end
              else begin
                RS.record_success rset i;
                finished ~replica:i (Array.map (degrade ~failovers) results)
              end
          | exception Replica_failed { replica; reason; stats } ->
              Array.iter (fun s -> RS.advance rset (stats_seconds s)) stats;
              RS.record_failure rset replica;
              let fo = Psp_pir.Cost_model.failover_seconds cost ~attempt:(failovers + 1) in
              RS.advance rset fo;
              go ~failovers:(failovers + 1) ~fo_seconds:(fo_seconds +. fo)
                ~abandoned:
                  ({ on_replica = replica; reason; attempt_stats = stats } :: abandoned)
                ~last)
  in
  go ~failovers:0 ~fo_seconds:0.0 ~abandoned:[] ~last:None

let query_batch_replicated ?retry ?max_failovers rset (queries : endpoints array) =
  replicated_run ?max_failovers rset (fun server -> query_batch ?retry server queries)
  [@@oblivious]

(* ------------------------------------------------------------------ *)
(* Node-id adapters for harnesses that hold the server-side graph. *)

let endpoints_of_nodes g (pairs [@secret]) =
  (Array.map
     (fun (s, t) ->
       let sx, sy = Psp_graph.Graph.coords g s in
       let tx, ty = Psp_graph.Graph.coords g t in
       { sx; sy; tx; ty })
     pairs
  [@leak_ok
    "trip count is the batch length, which the server observes as the number of \
     plan executions regardless; the endpoints inside stay secret"])
  [@@oblivious]

let query_nodes ?retry server g (s [@secret]) (t [@secret]) =
  (query_batch ?retry server (endpoints_of_nodes g [| (s, t) |])).(0)
  [@@oblivious]

let query_nodes_batch ?retry ?pacing server g (pairs [@secret]) =
  query_batch ?retry ?pacing server (endpoints_of_nodes g pairs)
  [@@oblivious]

let query_nodes_replicated ?retry ?max_failovers rset g (s [@secret]) (t [@secret]) =
  query_batch_replicated ?retry ?max_failovers rset (endpoints_of_nodes g [| (s, t) |])
  [@@oblivious]
