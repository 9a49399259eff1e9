module Obs = Psp_obs.Obs
module Server = Psp_pir.Server
module Cost_model = Psp_pir.Cost_model
module Client = Psp_core.Client
module Engine = Psp_core.Engine
module Response_time = Psp_core.Response_time

type policy = Adaptive | Fixed of int

type config = {
  min_width : int;
  max_width : int;
  slo : float;
  policy : policy;
  depth : int;
}

let default = { min_width = 1; max_width = 16; slo = 60.0; policy = Adaptive; depth = 1 }

type tenant = { name : string; server : Server.t; graph : Psp_graph.Graph.t }

type served = {
  job : Queue.job;
  result : Client.result;
  response : Response_time.t;
  latency : float;
  width : int;
  dispatched : float;
  completed : float;
}

type batch_record = {
  b_tenant : string;
  b_width : int;
  b_dispatched : float;
  b_service : float;
}

type report = {
  served : served array;
  batches : batch_record list;
  makespan : float;
}

(* ------------------------------------------------------------------ *)
(* Width policy.  Everything these functions read is public — queue
   depths, clock instants, configuration and cost-model estimates — and
   the [@@oblivious] marks put them on psplint's audit surface so they
   stay that way: a future edit that threads secret data into a width
   or deadline decision becomes a lint finding, not a leak.

   Adaptive is work-conserving: whenever the serial server is idle it
   ships everything a lane has queued (clamped to [min, max]), shrinking
   the width while the estimated batch service would push the oldest
   member past the SLO ([ests.(w)] is the cost-model estimate for a
   width-[w] batch).  During a long service new arrivals pile up, so the
   next batch is naturally wider — batching tracks load with no tuning.
   Fixed [w] is the classic fill-or-timeout batcher it is benchmarked
   against: it waits for [w] members or for its head to age out the
   SLO, whichever comes first. *)

let decide_width cfg ~age ~queued ~ests =
  match cfg.policy with
  | Fixed w -> max 1 (min w queued)
  | Adaptive ->
      let w = ref (max cfg.min_width (min cfg.max_width queued)) in
      while !w > cfg.min_width && age +. ests.(!w) > cfg.slo do
        decr w
      done;
      max 1 !w
  [@@oblivious]

(* The instant a lane becomes due: an adaptive lane is due the moment
   it has a head (work-conserving), a fixed-width lane only when its
   head times out (its fill trigger is checked separately). *)
let lane_deadline cfg ~head =
  match cfg.policy with
  | Adaptive -> head
  | Fixed _ -> head +. cfg.slo
  [@@oblivious]

(* The instant a batch was formed, as an online scheduler would have
   formed it, and so the earliest its fetch may start at any depth: a
   full batch the moment its last member arrived; any other batch only
   once its lane fired — the head's deadline, or the end of the stream
   ([ended], infinite while arrivals remain), whichever came first. *)
let fetch_ready ~cap ~width ~last ~deadline ~ended =
  if width >= cap then last else Float.max last (Float.min deadline ended)
  [@@oblivious]

(* ------------------------------------------------------------------ *)
(* Per-tenant serving state: telemetry instruments (names derived from
   the tenant name — public configuration) and the learned service
   estimate the adaptive deadline plans against. *)

type lane_state = {
  tn : tenant;
  max_pages : int;  (* largest served file, for the width factor *)
  mutable est_unit : float;  (* EWMA of width-1 service; 0 until observed *)
  c_batches : Obs.counter;
  g_peak : Obs.gauge;
  g_width : Obs.gauge;
  h_width : Obs.histogram;
  h_latency : Obs.histogram;
}

let lane_state_of tn =
  let max_pages =
    List.fold_left
      (fun acc name ->
        max acc (Psp_storage.Page_file.page_count (Server.file tn.server name)))
      1
      (Server.file_names tn.server)
  in
  { tn;
    max_pages;
    est_unit = 0.0;
    c_batches = Obs.counter (Printf.sprintf "serve.%s.batches" tn.name);
    g_peak = Obs.gauge (Printf.sprintf "serve.%s.queue.peak" tn.name);
    g_width = Obs.gauge (Printf.sprintf "serve.%s.width.last" tn.name);
    h_width = Obs.histogram (Printf.sprintf "serve.%s.width" tn.name);
    h_latency = Obs.histogram (Printf.sprintf "serve.%s.latency" tn.name) }

(* Cost-model width factor: how much longer a width-w batch takes than a
   width-1 one, with the depth derived from the same layout formula the
   pyramid store uses.  Public by construction. *)
let width_factor st w =
  let one w =
    Cost_model.batch_response_seconds (Server.cost st.tn.server)
      ~cache_capacity:Psp_pir.Pyramid_store.default_cache_capacity
      ~file_pages:st.max_pages ~batch:w
  in
  one (max 1 w) /. one 1

let est_service st w =
  if st.est_unit <= 0.0 then 0.0 else st.est_unit *. width_factor st w

(* Estimated batch service per candidate width, indexed by width. *)
let ests_for st cfg =
  Array.init (cfg.max_width + 1) (fun w -> if w = 0 then 0.0 else est_service st w)

let learn st ~width ~service =
  let unit = service /. width_factor st width in
  st.est_unit <-
    (if st.est_unit <= 0.0 then unit else (0.5 *. st.est_unit) +. (0.5 *. unit))

(* ------------------------------------------------------------------ *)
(* Building a mixed stream *)

let mix streams =
  let all =
    List.concat_map
      (fun (tenant, pairs, arrivals) ->
        if Array.length pairs <> Array.length arrivals then
          invalid_arg "Scheduler.mix: one arrival per query required";
        Array.to_list
          (Array.mapi
             (fun k (src, dst) ->
               { Queue.tenant; src; dst; arrival = arrivals.(k); index = 0 })
             pairs))
      streams
  in
  let sorted =
    List.stable_sort
      (fun (a : Queue.job) b -> compare a.Queue.arrival b.Queue.arrival)
      all
  in
  Array.of_list (List.mapi (fun i (j : Queue.job) -> { j with Queue.index = i }) sorted)

(* ------------------------------------------------------------------ *)
(* The virtual-clock event loop: a serial server (one SCP) that, when
   idle, either dispatches a due lane or advances the clock to the next
   event (an arrival or a lane deadline).  Arrivals are known up front
   but the policies are future-blind: a lane is due only from what an
   online scheduler could see — its depth, its head's age and the end
   of the stream. *)

let eps = 1e-9

let run ?retry cfg ~tenants ~jobs =
  if cfg.min_width < 1 then invalid_arg "Scheduler.run: min_width must be >= 1";
  if cfg.max_width < cfg.min_width then
    invalid_arg "Scheduler.run: max_width must be >= min_width";
  if cfg.slo <= 0.0 then invalid_arg "Scheduler.run: slo must be positive";
  if cfg.depth < 1 then invalid_arg "Scheduler.run: depth must be >= 1";
  (match cfg.policy with
  | Fixed w when w < 1 -> invalid_arg "Scheduler.run: fixed width must be >= 1"
  | _ -> ());
  let lanes = Hashtbl.create 8 in
  List.iter
    (fun tn ->
      if Hashtbl.mem lanes tn.name then
        invalid_arg (Printf.sprintf "Scheduler.run: duplicate tenant %S" tn.name);
      Hashtbl.replace lanes tn.name (lane_state_of tn))
    tenants;
  let lane name =
    match Hashtbl.find_opt lanes name with
    | Some st -> st
    | None -> invalid_arg (Printf.sprintf "Scheduler.run: unknown tenant %S" name)
  in
  let n = Array.length jobs in
  let ordered = Array.copy jobs in
  Array.stable_sort
    (fun (a : Queue.job) b -> compare a.Queue.arrival b.Queue.arrival)
    ordered;
  Array.iter (fun (j : Queue.job) -> ignore (lane j.Queue.tenant)) ordered;
  let q = Queue.create () in
  let out : served option array = Array.make n None in
  let batches = ref [] in
  let now = ref 0.0 in
  let next = ref 0 in
  let ingest () =
    while
      !next < n && ordered.(!next).Queue.arrival <= !now +. eps
    do
      let j = ordered.(!next) in
      Queue.push q j;
      let st = lane j.Queue.tenant in
      Obs.set_max st.g_peak (float_of_int (Queue.depth q j.Queue.tenant));
      incr next
    done
  in
  let cap = match cfg.policy with Adaptive -> cfg.max_width | Fixed w -> w in
  let deadline_of name =
    match Queue.head_arrival q name with
    | None -> infinity
    | Some head -> lane_deadline cfg ~head
  in
  let due name =
    let flush = !next >= n in
    Queue.depth q name >= cap || flush || !now +. eps >= deadline_of name
  in
  (* The scheduler keeps TWO clocks.  The {e formation} clock is [now]:
     it advances by the batch's modeled fetch + decode whatever the
     depth, so which jobs are queued when the next batch forms — batch
     composition, and with it every member's trace and the server's
     fetch sequence — is depth-independent by construction.  Each batch
     runs to completion on the spot; its reported instants come from
     the modeled timeline, where batch [i]'s fetch starts at
     [max ready_i fetch_end_(i-1) completed_(i-depth)].  At depth 1
     that reproduces the formation clock exactly (the synchronous
     schedule); at depth >= 2 batch [i]'s fetch overlaps earlier
     batches' decode. *)
  let timeline = Timeline.create ~depth:cfg.depth in
  let dispatch name =
    let st = lane name in
    let head = Option.value ~default:!now (Queue.head_arrival q name) in
    let deadline = lane_deadline cfg ~head in
    let width =
      decide_width cfg ~age:(Float.max 0.0 (!now -. head)) ~queued:(Queue.depth q name)
        ~ests:(ests_for st cfg)
    in
    let members = Queue.take q name ~max:width in
    let w = Array.length members in
    let pairs = Array.map (fun (j : Queue.job) -> (j.Queue.src, j.Queue.dst)) members in
    let cost = Server.cost st.tn.server in
    let fetch = ref 0.0 and decode = ref 0.0 in
    let pacing =
      { Engine.on_server = (fun ~seconds -> fetch := !fetch +. seconds);
        on_decode =
          (fun ~bytes -> decode := !decode +. Cost_model.decode_seconds cost ~bytes) }
    in
    let ready =
      fetch_ready ~cap ~width:w
        ~last:
          (Array.fold_left
             (fun acc (j : Queue.job) -> Float.max acc j.Queue.arrival)
             0.0 members)
        ~deadline
        ~ended:(if !next >= n then ordered.(n - 1).Queue.arrival else infinity)
    in
    let results =
      Client.query_nodes_batch ?retry ~pacing st.tn.server st.tn.graph pairs
    in
    let fetch = !fetch and decode = !decode in
    let completed = (Timeline.place timeline ~ready ~fetch ~decode).Timeline.completed in
    let dispatched = !now in
    now := !now +. fetch +. decode;
    Obs.incr st.c_batches;
    Obs.set st.g_width (float_of_int w);
    Obs.observe st.h_width (float_of_int w);
    batches :=
      { b_tenant = name;
        b_width = w;
        b_dispatched = dispatched;
        b_service = fetch +. decode }
      :: !batches;
    learn st ~width:w ~service:fetch;
    let decode_share = decode /. float_of_int w in
    Array.iteri
      (fun k (j : Queue.job) ->
        let wait =
          Cost_model.queueing_delay_seconds ~enqueued:j.Queue.arrival ~dispatched
        in
        let latency = completed -. j.Queue.arrival in
        Obs.observe st.h_latency latency;
        out.(j.Queue.index) <-
          Some
            { job = j;
              result = results.(k);
              response =
                Response_time.with_decode ~seconds:decode_share
                  (Response_time.with_queue ~seconds:wait
                     (Response_time.of_result results.(k)));
              latency;
              width = w;
              dispatched;
              completed })
      members
  in
  let rec loop () =
    ingest ();
    if Queue.total_depth q = 0 then begin
      if !next < n then begin
        now := Float.max !now ordered.(!next).Queue.arrival;
        loop ()
      end
    end
    else begin
      let pending = Queue.tenants q in
      let ripe = List.filter due pending in
      match ripe with
      | _ :: _ ->
          (* FIFO fairness across lanes: serve the oldest head first *)
          let oldest =
            List.fold_left
              (fun best name ->
                let h name =
                  Option.value ~default:infinity (Queue.head_arrival q name)
                in
                if h name < h best then name else best)
              (List.hd ripe) (List.tl ripe)
          in
          dispatch oldest;
          loop ()
      | [] ->
          let horizon =
            List.fold_left (fun acc name -> Float.min acc (deadline_of name)) infinity
              pending
          in
          let horizon =
            if !next < n then Float.min horizon ordered.(!next).Queue.arrival
            else horizon
          in
          now := Float.max !now horizon;
          loop ()
    end
  in
  loop ();
  Timeline.finish timeline;
  let served =
    Array.mapi
      (fun i s ->
        match s with
        | Some s -> s
        | None ->
            invalid_arg
              (Printf.sprintf "Scheduler.run: job index %d never served \
                               (indices must be unique and dense)" i))
      out
  in
  { served; batches = List.rev !batches; makespan = Timeline.makespan timeline }
