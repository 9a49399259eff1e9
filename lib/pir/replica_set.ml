module Obs = Psp_obs.Obs

(* Telemetry: constant-shape — every instrument name below is a static
   string or derived from the public replica index, and every delta is a
   constant or a public fault outcome (DESIGN.md §5). *)
let m_attempts = Obs.counter "pir.replica.attempts"
let m_failovers = Obs.counter "pir.replica.failovers"
let m_exhausted = Obs.counter "pir.replica.exhausted"
let m_successes i = Obs.counter (Printf.sprintf "pir.replica.%d.successes" i)
let m_failures i = Obs.counter (Printf.sprintf "pir.replica.%d.failures" i)
let m_breaker i = Obs.gauge (Printf.sprintf "pir.replica.%d.breaker" i)

type t = {
  servers : Server.t array;
  breakers : Breaker.t array;
  mutable clock : float; (* simulated seconds; the breakers' time base *)
  mutable current : int; (* sticky selection *)
}

exception No_replica_available

let create ?mode ~cost ~key ~replicas files =
  if replicas < 1 then invalid_arg "Replica_set.create: replicas must be >= 1";
  { servers =
      Array.init replicas (fun i -> Server.create ?mode ~replica:i ~cost ~key files);
    breakers = Array.init replicas (fun i -> Breaker.create ~seed:i ());
    clock = 0.0;
    current = 0 }

let width t = Array.length t.servers
let server t i = t.servers.(i)
let breaker t i = t.breakers.(i)
let clock t = t.clock
let advance t seconds = t.clock <- t.clock +. Float.max 0.0 seconds

let gauge_of_state = function
  | Breaker.Closed -> 0.0
  | Breaker.Half_open -> 1.0
  | Breaker.Open -> 2.0

let publish_breaker t i =
  Obs.set (m_breaker i) (gauge_of_state (Breaker.state t.breakers.(i)))

(* Selection is sticky and round-robin: keep serving from the current
   replica while its breaker admits it, otherwise scan forward from it.
   A pure function of breaker state and the simulated clock — never of
   query content — so which replica sees a query reveals nothing about
   the query (docs/RESILIENCE.md). *)
let select t =
  let n = width t in
  let rec scan i tried =
    if tried >= n then None
    else
      let cand = (t.current + i) mod n in
      if Breaker.available t.breakers.(cand) ~now:t.clock then begin
        t.current <- cand;
        Some cand
      end
      else scan (i + 1) (tried + 1)
  in
  scan 0 0

let select_exn t =
  match select t with
  | Some i ->
      Obs.incr m_attempts;
      i
  | None ->
      Obs.incr m_exhausted;
      raise No_replica_available

let record_success t i =
  Obs.incr (m_successes i);
  Breaker.record_success t.breakers.(i);
  publish_breaker t i

let record_failure t i =
  Obs.incr (m_failures i);
  Obs.incr m_failovers;
  Breaker.record_failure t.breakers.(i) ~now:t.clock;
  publish_breaker t i;
  (* move off the failed replica; the next select scans from here *)
  t.current <- (i + 1) mod width t
