module Obs = Psp_obs.Obs

type mode = [ `Simulated | `Pyramid ]

exception File_too_large of { file : string; bytes : int; limit : int }
exception Page_corrupt of { file : string; page : int }
exception Tampered of { file : string; page : int }
exception Replica_down of { replica : int }
exception Replica_timeout of { replica : int; seconds : float }

type t = {
  mode : mode;
  cost : Cost_model.t;
  key : bytes; (* publisher master key: page authentication at fetch time *)
  replica : int;
  files : (string, Psp_storage.Page_file.t) Hashtbl.t;
  stores : (string, Pyramid_store.t) Hashtbl.t; (* `Pyramid mode only *)
  order : string list;
}

let create ?(mode = `Simulated) ?(replica = 0) ~cost ~key files =
  let table = Hashtbl.create 8 and stores = Hashtbl.create 8 in
  let limit = Cost_model.max_file_bytes cost in
  List.iter
    (fun f ->
      let name = Psp_storage.Page_file.name f in
      if Hashtbl.mem table name then
        invalid_arg (Printf.sprintf "Server.create: duplicate file %S" name);
      let bytes = Psp_storage.Page_file.size_bytes f in
      if bytes > limit then raise (File_too_large { file = name; bytes; limit });
      (* pack-time sealing: a no-op when already sealed under this key,
         so replicas sharing one published Page_file seal it once (and a
         scratch server with a different key reseals for itself) *)
      Psp_storage.Page_file.seal f ~key;
      Hashtbl.replace table name f;
      if mode = `Pyramid && Psp_storage.Page_file.page_count f > 0 then
        Hashtbl.replace stores name (Pyramid_store.create ~key f))
    files;
  { mode;
    cost;
    key;
    replica;
    files = table;
    stores;
    order = List.map Psp_storage.Page_file.name files }

let mode t = t.mode
let cost t = t.cost
let replica t = t.replica
let key t = t.key

let file t name =
  match Hashtbl.find_opt t.files name with
  | Some f -> f
  | None -> raise Not_found

let file_names t = t.order

let database_bytes t =
  List.fold_left
    (fun acc name -> acc + Psp_storage.Page_file.size_bytes (file t name))
    0 t.order

(* Executed-side accounting, summed over the instantiated pyramid
   stores (zero in `Simulated mode, where no store exists).  Both totals
   are public functions of the access count and the batch widths — what
   the batch benchmark and test_batch.ml compare against the cost
   model's page-touch basis. *)
let executed_slot_touches t =
  Hashtbl.fold (fun _ s acc -> acc + Pyramid_store.slot_touches s) t.stores 0

let executed_level_scans t =
  Hashtbl.fold (fun _ s acc -> acc + Pyramid_store.level_scans s) t.stores 0

let retained_physical_events t =
  Hashtbl.fold
    (fun _ s acc -> acc + List.length (Pyramid_store.physical_trace s))
    t.stores 0

(* The hierarchy depth a batched pass probes per marginal member: the
   serving store's actual depth, or — in `Simulated mode, where no store
   is instantiated — the depth the default pyramid layout would have
   over this file.  Keeping both sides on Cost_model.pyramid_levels
   makes the simulated marginal cost equal the executed touch count by
   construction. *)
let probe_levels t ~file:name ~pages =
  match t.mode with
  | `Simulated ->
      Cost_model.pyramid_levels
        ~cache_capacity:Pyramid_store.default_cache_capacity ~file_pages:pages
  | `Pyramid -> Pyramid_store.level_count (Hashtbl.find t.stores name)

module Session = struct
  type server = t

  (* Telemetry (DESIGN.md §5): everything recorded here is derived from
     the public query plan — file names, per-plan fetch counts, round
     counts — or from the deterministic simulated cost model, never from
     the secret page indices.  psplint's secret-telemetry rule checks
     every site inside the [@@oblivious] functions below. *)
  let m_sessions = Obs.counter "pir.sessions"
  let m_fetches = Obs.counter "pir.fetch.total"
  let m_batches = Obs.counter "pir.fetch.batches"
  let m_rounds = Obs.counter "pir.rounds"
  let m_retries = Obs.counter "pir.retries"
  let m_downloads = Obs.counter "pir.download.pages"
  let m_plain = Obs.counter "pir.plain_fetch.total"
  let m_pir_seconds = Obs.histogram "pir.session.pir_seconds"
  let m_comm_seconds = Obs.histogram "pir.session.comm_seconds"
  let m_fetch_file name = Obs.counter ("pir.fetch.pages." ^ name)

  type stats = {
    rounds : int;
    pir_seconds : float;
    comm_seconds : float;
    server_cpu_seconds : float;
    pir_fetches : (string * int) list;
    retries : int;
    recovery_seconds : float;
    trace : Trace.t;
  }

  type t = {
    server : server;
    mutable round : int;
    mutable pir_seconds : float;
    mutable comm_seconds : float;
    mutable server_cpu_seconds : float;
    mutable retries : int;
    mutable recovery_seconds : float;
    mutable spike_seconds : float; (* cumulative latency-spike delay *)
    fetch_counts : (string, int) Hashtbl.t;
    trace : Trace.t;
  }

  (* [share] is the number of batched sessions multiplexed over one
     round trip: a merged batch round is a single message exchange, so
     its latency is split evenly — the communication-side counterpart of
     the fetch_batch pass split.  share = 1 (the default) is the
     unbatched cost, unchanged. *)
  let rtt_share server ~share =
    server.cost.Cost_model.rtt /. float_of_int (max 1 share)

  let start ?(share = 1) server =
    Obs.incr m_sessions;
    { server;
      round = 1;
      pir_seconds = 0.0;
      comm_seconds = rtt_share server ~share;
      server_cpu_seconds = 0.0;
      retries = 0;
      recovery_seconds = 0.0;
      spike_seconds = 0.0;
      fetch_counts = Hashtbl.create 8;
      trace = Trace.create () }

  let m_replica_down = Obs.counter "pir.replica.down"
  let m_replica_spikes = Obs.counter "pir.replica.spikes"

  let next_round ?(share = 1) t =
    Obs.incr m_rounds;
    t.round <- t.round + 1;
    t.comm_seconds <- t.comm_seconds +. rtt_share t.server ~share
    [@@oblivious]

  let round t = t.round

  (* The fault hooks' corruption: one flipped bit of an already-fetched
     page, whose length is the file's public page size. *)
  let flip ~mask bytes =
    let b = Bytes.copy bytes in
    if Bytes.length b > 0 then Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor mask));
    b

  (* One merged pass for same-round requests of concurrent sessions — a
     single query is the width-1 case.  Every member's attempt is
     accounted and recorded in its own trace *before* the shared
     failpoint is consulted: the adversary saw the request whether or
     not the retrieval succeeded, and a batch-granular fault (and its
     retry) adds the same extra events to every member — batched
     sessions stay mutually trace-identical under any fault schedule.
     In `Pyramid mode the k probes are executed as one merged level scan
     per level (fetch_many); the simulated pass cost charges the same
     marginal page-touch count and is split evenly: each member is
     charged pir_batch_fetch_seconds / batch. *)
  let fetch_batch ~file:name (requests : (t * int) array) =
    match Array.length requests with
    | 0 -> [||]
    | k ->
        Obs.with_span "pir_fetch_batch" (fun () ->
            Obs.incr m_batches;
            let server = (fst requests.(0)).server in
            Array.iter
              (fun (s, _) ->
                if s.server != server then
                  invalid_arg "Session.fetch_batch: sessions span different servers")
              requests;
            let f = file server name in
            let pages = Psp_storage.Page_file.page_count f in
            let levels = if pages = 0 then 1 else probe_levels server ~file:name ~pages in
            let share =
              Cost_model.pir_batch_fetch_seconds server.cost ~file_pages:pages ~levels
                ~batch:k
              /. float_of_int k
            in
            Array.iter
              (fun (s, (page [@secret])) ->
                (* all recorded quantities are public: the file name, a
                   constant delta per fetch and per page — never the
                   secret index *)
                Obs.incr m_fetches;
                Obs.incr (m_fetch_file name);
                Obs.add_pages 1;
                (* the abort message may only name the file and its
                   public page range, never the secret index *)
                (if page < 0 || page >= pages then
                   invalid_arg
                     (Printf.sprintf "Session.fetch_batch(%s): page out of range [0,%d)"
                        name pages))
                [@leak_ok "bounds check fails closed; the message is redacted to public data"];
                s.pir_seconds <- s.pir_seconds +. share;
                s.comm_seconds <-
                  s.comm_seconds
                  +. Cost_model.transfer_seconds server.cost
                       ~bytes:(Psp_storage.Page_file.page_size f);
                Hashtbl.replace s.fetch_counts name
                  (1 + Option.value ~default:0 (Hashtbl.find_opt s.fetch_counts name));
                Trace.record s.trace (Trace.Pir_fetch { round = s.round; file = name }))
              requests;
            Psp_fault.Fault.inject "pir.fetch.transient";
            (* batch-granular replica chaos: one consultation per merged
               pass, its effect applied to every member, so batched
               sessions stay mutually trace-identical under any schedule *)
            (if Psp_fault.Fault.fires "pir.replica.down" then begin
               Obs.incr m_replica_down;
               raise (Replica_down { replica = server.replica })
             end)
            [@leak_ok
              "replica outage aborts the whole batch; the exception carries only the \
               public replica index and the failover replays the identical public plan"];
            if Psp_fault.Fault.fires "pir.replica.latency" then begin
              Obs.incr m_replica_spikes;
              let spike = Cost_model.latency_spike_seconds server.cost in
              Array.iter
                (fun (s, _) ->
                  s.comm_seconds <- s.comm_seconds +. spike;
                  s.spike_seconds <- s.spike_seconds +. spike)
                requests;
              let seconds = (fst requests.(0)).spike_seconds in
              (if seconds > Cost_model.timeout_seconds server.cost then
                 raise (Replica_timeout { replica = server.replica; seconds }))
              [@leak_ok
                "the timeout threshold and the accumulated spike delay are deterministic \
                 cost-model quantities, independent of query content"]
            end;
            (* the store pass: one merged fetch_many serves every
               member's probe with level-major scans instead of k
               independent walks *)
            let contents =
              (match server.mode with
              | `Simulated ->
                  Array.map
                    (fun (_, (page [@secret])) -> Psp_storage.Page_file.read f page)
                    requests
              | `Pyramid ->
                  let store = Hashtbl.find server.stores name in
                  let pages =
                    Pyramid_store.fetch_many store
                      (Array.map (fun (_, (page [@secret])) -> page) requests)
                  in
                  (* nothing reads a served store's event log, and it
                     would otherwise grow by one event per slot touch for
                     the life of the process *)
                  Pyramid_store.clear_trace store;
                  pages)
              [@leak_ok
                "the merged pass's loop structure depends only on the public batch \
                 width and the access count; the secret page indices only select \
                 which pre-planned slots carry real payloads (see fetch_many)"]
            in
            Array.mapi
              (fun m (_, (page [@secret])) ->
                let bytes =
                  (if Psp_fault.Fault.fires "pir.fetch.corrupt" then
                     flip ~mask:0x01 contents.(m)
                   else contents.(m))
                  [@leak_ok
                    "fault-injection test hook: flips one bit of the already-fetched page, \
                     whose length is the file's public page size"]
                in
                (if not (Psp_storage.Page_file.verify_page f page bytes) then
                   raise (Page_corrupt { file = name; page }))
                [@leak_ok
                  "integrity failure aborts the whole batch; the exception stays inside the \
                   client trust boundary and the engine's retry re-issues every member's \
                   identical request"];
                let bytes =
                  (* a Byzantine host recomputes the CRC after altering the
                     page, so the flip lands after the checksum gate — only
                     the keyed tag check below can catch it *)
                  (if Psp_fault.Fault.fires "pir.fetch.tamper" then flip ~mask:0x80 bytes
                   else bytes)
                  [@leak_ok
                    "fault-injection test hook: flips one bit of the already-fetched page, \
                     whose length is the file's public page size"]
                in
                (if not (Psp_storage.Page_file.authenticate f ~key:server.key page bytes)
                 then raise (Tampered { file = name; page }))
                [@leak_ok
                  "authenticity failure aborts the whole batch and fails the replica over; \
                   the exception stays inside the client trust boundary"];
                bytes)
              requests)
    [@@oblivious]

  (* The header download, one per member session as one exchange.
     Like fetch_batch, every member is charged and records its own plain
     download before the shared failpoints fire, so a fault (and the
     batch-granular retry) adds the same events to every member.  The
     pages pass the same CRC and tag gates as a private fetch: the header
     fixes the plan, the KD-tree splits and the scheme tag, so a host
     that could rewrite it would choose what the client walks.  The page
     numbers here are public. *)
  let download ~file:name (sessions : t array) =
    match Array.length sessions with
    | 0 -> [||]
    | _ ->
        let server = sessions.(0).server in
        let f = file server name in
        let pages = Psp_storage.Page_file.page_count f in
        Array.iter
          (fun t ->
            if t.server != server then
              invalid_arg "Session.download: sessions span different servers";
            t.comm_seconds <-
              t.comm_seconds
              +. Cost_model.transfer_seconds server.cost
                   ~bytes:(Psp_storage.Page_file.size_bytes f);
            Trace.record t.trace (Trace.Plain_download { round = t.round; file = name; pages });
            (* public: whole-file downloads touch a page count fixed by the layout *)
            Obs.add m_downloads pages;
            Obs.add_pages pages)
          sessions;
        Psp_fault.Fault.inject "pir.download.transient";
        Array.init pages (fun page ->
            let bytes = Psp_storage.Page_file.read f page in
            if not (Psp_storage.Page_file.verify_page f page bytes) then
              raise (Page_corrupt { file = name; page });
            let bytes =
              if Psp_fault.Fault.fires "pir.download.tamper" then flip ~mask:0x80 bytes
              else bytes
            in
            if not (Psp_storage.Page_file.authenticate f ~key:server.key page bytes) then
              raise (Tampered { file = name; page });
            bytes)
    [@@oblivious]

  let plain_fetch t ~file:name ~page =
    Obs.incr m_plain;
    Obs.add_pages 1;
    let f = file t.server name in
    t.server_cpu_seconds <- t.server_cpu_seconds +. Cost_model.plain_fetch_seconds t.server.cost;
    t.comm_seconds <-
      t.comm_seconds
      +. Cost_model.transfer_seconds t.server.cost ~bytes:(Psp_storage.Page_file.page_size f);
    Psp_storage.Page_file.read f page

  let add_server_compute t seconds = t.server_cpu_seconds <- t.server_cpu_seconds +. seconds

  let note_retry t ~backoff =
    Obs.incr m_retries;
    t.retries <- t.retries + 1;
    t.recovery_seconds <- t.recovery_seconds +. backoff;
    t.comm_seconds <- t.comm_seconds +. backoff
    [@@oblivious]

  (* Server-side accounted seconds so far: the same pir + comm + cpu
     total [finish] will report, readable mid-session.  The engine
     reports it after a walk's last fetch so the serving scheduler can
     place the batch's fetch phase on its modeled timeline — a public
     aggregate of plan-determined charges. *)
  let accounted_seconds t =
    t.pir_seconds +. t.comm_seconds +. t.server_cpu_seconds

  let finish t =
    (* simulated cost-model totals: deterministic functions of the plan *)
    Obs.observe m_pir_seconds t.pir_seconds;
    Obs.observe m_comm_seconds t.comm_seconds;
    { rounds = t.round;
      pir_seconds = t.pir_seconds;
      comm_seconds = t.comm_seconds;
      server_cpu_seconds = t.server_cpu_seconds;
      pir_fetches =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.fetch_counts [] |> List.sort compare;
      retries = t.retries;
      recovery_seconds = t.recovery_seconds;
      trace = t.trace }
end
