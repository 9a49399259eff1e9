type t = {
  pir_seconds : float;
  comm_seconds : float;
  server_cpu_seconds : float;
  client_seconds : float;
  decode_seconds : float;
  queue_seconds : float;
}

let total t =
  t.pir_seconds +. t.comm_seconds +. t.server_cpu_seconds +. t.client_seconds
  +. t.decode_seconds +. t.queue_seconds

let of_result (r : Client.result) =
  { pir_seconds = r.Client.stats.Psp_pir.Server.Session.pir_seconds;
    comm_seconds = r.Client.stats.Psp_pir.Server.Session.comm_seconds;
    server_cpu_seconds = 0.0;
    client_seconds = r.Client.client_seconds;
    decode_seconds = 0.0;
    queue_seconds = 0.0 }

let zero =
  { pir_seconds = 0.0;
    comm_seconds = 0.0;
    server_cpu_seconds = 0.0;
    client_seconds = 0.0;
    decode_seconds = 0.0;
    queue_seconds = 0.0 }

(* One finished session's cost-model accounting (client time unknown
   there: 0). *)
let of_stats (s : Psp_pir.Server.Session.stats) =
  { pir_seconds = s.Psp_pir.Server.Session.pir_seconds;
    comm_seconds = s.Psp_pir.Server.Session.comm_seconds;
    server_cpu_seconds = 0.0;
    client_seconds = 0.0;
    decode_seconds = 0.0;
    queue_seconds = 0.0 }

let with_queue ~seconds t =
  if seconds < 0.0 then invalid_arg "Response_time.with_queue: negative delay";
  { t with queue_seconds = seconds }

let with_decode ~seconds t =
  if seconds < 0.0 then invalid_arg "Response_time.with_decode: negative decode";
  { t with decode_seconds = seconds }

let add a b =
  { pir_seconds = a.pir_seconds +. b.pir_seconds;
    comm_seconds = a.comm_seconds +. b.comm_seconds;
    server_cpu_seconds = a.server_cpu_seconds +. b.server_cpu_seconds;
    client_seconds = a.client_seconds +. b.client_seconds;
    decode_seconds = a.decode_seconds +. b.decode_seconds;
    queue_seconds = a.queue_seconds +. b.queue_seconds }

let scale k t =
  { pir_seconds = k *. t.pir_seconds;
    comm_seconds = k *. t.comm_seconds;
    server_cpu_seconds = k *. t.server_cpu_seconds;
    client_seconds = k *. t.client_seconds;
    decode_seconds = k *. t.decode_seconds;
    queue_seconds = k *. t.queue_seconds }

(* A failover-surviving query's honest response time: the serving
   attempt, plus every abandoned attempt's already-accounted cost, plus
   the modeled switch/backoff seconds (charged as communication time —
   the client spends them waiting on the link). *)
let of_replicated (r : Client.replicated) =
  let per_member i =
    List.fold_left
      (fun acc (a : Client.abandoned) ->
        if i < Array.length a.Client.attempt_stats then
          add acc (of_stats a.Client.attempt_stats.(i))
        else acc)
      zero r.Client.abandoned
  in
  let switch = { zero with comm_seconds = r.Client.failover_seconds } in
  Array.mapi
    (fun i res -> add (add (of_result res) (per_member i)) switch)
    r.Client.results

let mean = function
  | [] -> zero
  | ts -> scale (1.0 /. float_of_int (List.length ts)) (List.fold_left add zero ts)

let pp ppf t =
  Format.fprintf ppf
    "total=%.2fs (pir=%.2fs comm=%.2fs server=%.2fs client=%.3fs decode=%.2fs \
     queue=%.2fs)"
    (total t) t.pir_seconds t.comm_seconds t.server_cpu_seconds t.client_seconds
    t.decode_seconds t.queue_seconds
