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

(* Executed-side accounting, summed over the instantiated pyramid
   stores (zero in `Simulated mode, where no store exists).  The totals
   are public functions of the access count, the batch widths and the
   layout — what the batch benchmark and test_batch.ml compare against
   the cost model's page-touch basis. *)
let executed_slot_touches t =
  Hashtbl.fold (fun _ s acc -> acc + Pyramid_store.slot_touches s) t.stores 0

let executed_level_scans t =
  Hashtbl.fold (fun _ s acc -> acc + Pyramid_store.level_scans s) t.stores 0

let executed_rewritten_slots t =
  Hashtbl.fold (fun _ s acc -> acc + Pyramid_store.rewritten_slots s) t.stores 0

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
     counts — from the public batch width, or from the deterministic
     simulated cost model, never from the secret page indices.  Counters
     count members: a width-k event adds k, exactly as k width-1
     sessions would.  psplint's secret-telemetry rule checks every site
     inside the [@@oblivious] functions below. *)
  let m_sessions = Obs.counter "pir.sessions"
  let m_fetches = Obs.counter "pir.fetch.total"
  let m_batches = Obs.counter "pir.fetch.batches"
  let m_rounds = Obs.counter "pir.rounds"
  let m_retries = Obs.counter "pir.retries"
  let m_downloads = Obs.counter "pir.download.pages"
  let m_pir_seconds = Obs.histogram "pir.session.pir_seconds"
  let m_comm_seconds = Obs.histogram "pir.session.comm_seconds"
  let m_fetch_file name = Obs.counter ("pir.fetch.pages." ^ name)
  let m_width_batches = Obs.counter "pir.batcher.batches"
  let m_width = Obs.histogram "pir.batcher.width"
  let m_replica_down = Obs.counter "pir.replica.down"
  let m_replica_spikes = Obs.counter "pir.replica.spikes"

  type stats = {
    rounds : int;
    pir_seconds : float;
    comm_seconds : float;
    pir_fetches : (string * int) list;
    retries : int;
    recovery_seconds : float;
    trace : Trace.t;
  }

  (* One account for the whole batch.  Every member of a batch walks the
     same public plan in lockstep, so each is charged the same amounts
     and records the same events; the fields below are one member's
     account, which [finish] hands to every member. *)
  type t = {
    server : server;
    width : int;
    mutable round : int;
    mutable pir_seconds : float;
    mutable comm_seconds : float;
    mutable retries : int;
    mutable recovery_seconds : float;
    mutable spike_seconds : float; (* cumulative latency-spike delay *)
    fetch_counts : (string, int) Hashtbl.t;
    trace : Trace.t;
  }

  (* A merged batch round is a single message exchange, so its latency
     is split evenly over the members — the communication-side
     counterpart of the fetch pass split.  Width 1 is the unbatched
     cost. *)
  let rtt_share server ~width = server.cost.Cost_model.rtt /. float_of_int width

  let start server ~width =
    if width <= 0 then invalid_arg "Session.start: width must be positive";
    (* the batch width is public: the LBS trivially observes how many
       members it serves *)
    Obs.incr m_width_batches;
    Obs.observe m_width (float_of_int width);
    Obs.add m_sessions width;
    { server;
      width;
      round = 1;
      pir_seconds = 0.0;
      comm_seconds = rtt_share server ~width;
      retries = 0;
      recovery_seconds = 0.0;
      spike_seconds = 0.0;
      fetch_counts = Hashtbl.create 8;
      trace = Trace.create () }

  let next_round t =
    Obs.add m_rounds t.width;
    t.round <- t.round + 1;
    t.comm_seconds <- t.comm_seconds +. rtt_share t.server ~width:t.width
    [@@oblivious]

  (* The fault hooks' corruption: one flipped bit of an already-fetched
     page, whose length is the file's public page size. *)
  let flip ~mask bytes =
    let b = Bytes.copy bytes in
    if Bytes.length b > 0 then Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor mask));
    b

  (* The one integrity gate on a served page: its keyed tag.  A host
     that alters a page can recompute its CRC, so the CRC proves nothing
     against the adversary and is computed only after a tag failure, to
     classify it against the CRC the host holds for what it served — the
     published one, unless the host [recomputed] it over the bytes.  A
     mismatch is damage the host did not account for (bit rot at rest or
     in transit): [Page_corrupt], retried in place.  A match means the
     host recomputed the CRC over bytes it altered: [Tampered], failed
     over. *)
  let gate server f ~file ~page ~recomputed bytes =
    if not (Psp_storage.Page_file.authenticate f ~key:server.key page bytes) then begin
      let host_crc =
        if recomputed then Psp_util.Crc32.digest bytes
        else Psp_storage.Page_file.page_crc f page
      in
      if Psp_util.Crc32.digest bytes = host_crc then raise (Tampered { file; page })
      else raise (Page_corrupt { file; page })
    end

  (* One merged pass: member [i] retrieves [pages.(i)].  The attempt is
     accounted and recorded in the trace *before* the shared failpoints
     are consulted: the adversary saw the request whether or not the
     retrieval succeeded, and a batch-granular fault (and its retry)
     adds the same extra events to every member.  In `Pyramid mode the
     k probes are executed as one merged level scan per level
     (fetch_many); the simulated pass cost charges the same marginal
     page-touch count and is split evenly: each member is charged
     pir_batch_fetch_seconds / k. *)
  let fetch t ~file:name ~pages:(pages [@secret]) =
    let k = t.width in
    (if Array.length pages <> k then invalid_arg "Session.fetch: one page per member required")
    [@leak_ok
      "the guard reads only the array's length — the public batch width — never the \
       secret page indices inside it"];
    Obs.with_span "pir_fetch_batch" (fun () ->
        Obs.incr m_batches;
        let server = t.server in
        let f = file server name in
        let count = Psp_storage.Page_file.page_count f in
        for m = 0 to k - 1 do
          let page = pages.(m) in
          (* the abort message may only name the file and its public page
             range, never the secret index *)
          (if page < 0 || page >= count then
             invalid_arg
               (Printf.sprintf "Session.fetch(%s): page out of range [0,%d)" name count))
          [@leak_ok "bounds check fails closed; the message is redacted to public data"]
        done;
        (* all recorded quantities are public: the file name, the batch
           width and a constant charge per member — never a secret index *)
        Obs.add m_fetches k;
        Obs.add (m_fetch_file name) k;
        Obs.add_pages k;
        let levels = if count = 0 then 1 else probe_levels server ~file:name ~pages:count in
        t.pir_seconds <-
          t.pir_seconds
          +. Cost_model.pir_batch_fetch_seconds server.cost ~file_pages:count ~levels
               ~batch:k
             /. float_of_int k;
        t.comm_seconds <-
          t.comm_seconds
          +. Cost_model.transfer_seconds server.cost
               ~bytes:(Psp_storage.Page_file.page_size f);
        Hashtbl.replace t.fetch_counts name
          (1 + Option.value ~default:0 (Hashtbl.find_opt t.fetch_counts name));
        Trace.record t.trace (Trace.Pir_fetch { round = t.round; file = name });
        Psp_fault.Fault.inject "pir.fetch.transient";
        (* batch-granular replica chaos: one consultation per merged
           pass, its effect charged to the one account every member
           shares *)
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
          t.comm_seconds <- t.comm_seconds +. spike;
          t.spike_seconds <- t.spike_seconds +. spike;
          (if t.spike_seconds > Cost_model.timeout_seconds server.cost then
             raise (Replica_timeout { replica = server.replica; seconds = t.spike_seconds }))
          [@leak_ok
            "the timeout threshold and the accumulated spike delay are deterministic \
             cost-model quantities, independent of query content"]
        end;
        (* the store pass: one merged fetch_many serves every member's
           probe with level-major scans instead of k independent walks *)
        let contents =
          (match server.mode with
          | `Simulated ->
              Array.map (fun (page [@secret]) -> Psp_storage.Page_file.read f page) pages
          | `Pyramid ->
              let store = Hashtbl.find server.stores name in
              let contents = Pyramid_store.fetch_many store pages in
              (* nothing reads a served store's event log, and it would
                 otherwise grow by one event per slot touch for the life
                 of the process *)
              Pyramid_store.clear_trace store;
              contents)
          [@leak_ok
            "the merged pass's loop structure depends only on the public batch width \
             and the access count; the secret page indices only select which \
             pre-planned slots carry real payloads (see fetch_many)"]
        in
        (* the one per-member loop: each page passes its tag gate, in
           member order, so fault schedules replay exactly *)
        Array.init k (fun m ->
            let page = pages.(m) in
            (* a corrupt page fails before the tamper hook is reached, so
               the tamper hook is consulted only when corruption did not
               fire: hit ordinals and seeded streams stay as they are *)
            let corrupt = Psp_fault.Fault.fires "pir.fetch.corrupt" in
            let tampered = (not corrupt) && Psp_fault.Fault.fires "pir.fetch.tamper" in
            let bytes =
              (if corrupt then flip ~mask:0x01 contents.(m)
               else if tampered then flip ~mask:0x80 contents.(m)
               else contents.(m))
              [@leak_ok
                "fault-injection test hook: flips one bit of the already-fetched page, \
                 whose length is the file's public page size"]
            in
            (gate server f ~file:name ~page ~recomputed:tampered bytes)
            [@leak_ok
              "integrity failure aborts the whole batch; the exception stays inside the \
               client trust boundary, and the engine either re-issues every member's \
               identical request (corruption) or fails the replica over (tampering)"];
            bytes))
    [@@oblivious]

  (* The header download for every member as one exchange.  Like fetch,
     the download is charged and recorded before the shared failpoints
     fire, so a fault (and the batch-granular retry) adds the same events
     to every member.  The pages pass the same tag gate as a private
     fetch: the header fixes the plan, the KD-tree splits and the
     scheme tag, so a host that could rewrite it would choose what the
     client walks.  The page numbers here are public. *)
  let download t ~file:name =
    let server = t.server in
    let f = file server name in
    let pages = Psp_storage.Page_file.page_count f in
    t.comm_seconds <-
      t.comm_seconds
      +. Cost_model.transfer_seconds server.cost ~bytes:(Psp_storage.Page_file.size_bytes f);
    Trace.record t.trace (Trace.Plain_download { round = t.round; file = name; pages });
    (* public: whole-file downloads touch a page count fixed by the layout *)
    Obs.add m_downloads (t.width * pages);
    Obs.add_pages (t.width * pages);
    Psp_fault.Fault.inject "pir.download.transient";
    Array.init pages (fun page ->
        let bytes = Psp_storage.Page_file.read f page in
        let tampered = Psp_fault.Fault.fires "pir.download.tamper" in
        let bytes = if tampered then flip ~mask:0x80 bytes else bytes in
        gate server f ~file:name ~page ~recomputed:tampered bytes;
        bytes)
    [@@oblivious]

  let note_retry t ~backoff =
    Obs.add m_retries t.width;
    t.retries <- t.retries + 1;
    t.recovery_seconds <- t.recovery_seconds +. backoff;
    t.comm_seconds <- t.comm_seconds +. backoff
    [@@oblivious]

  (* The batch's server-side accounted seconds so far: the members'
     pir + comm totals, added one member at a time from 0.0 so the sum is
     bit-identical to adding up the [finish] stats.  The engine reports
     it after a walk's last fetch so the serving scheduler can place the
     batch's fetch phase on its modeled timeline — a public aggregate of
     plan-determined charges. *)
  let accounted_seconds t =
    let member = t.pir_seconds +. t.comm_seconds in
    let total = ref 0.0 in
    for _ = 1 to t.width do
      total := !total +. member
    done;
    !total

  let finish t =
    (* simulated cost-model totals: deterministic functions of the plan,
       observed once per member *)
    for _ = 1 to t.width do
      Obs.observe m_pir_seconds t.pir_seconds;
      Obs.observe m_comm_seconds t.comm_seconds
    done;
    let stats =
      { rounds = t.round;
        pir_seconds = t.pir_seconds;
        comm_seconds = t.comm_seconds;
        pir_fetches =
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.fetch_counts [] |> List.sort compare;
        retries = t.retries;
        recovery_seconds = t.recovery_seconds;
        trace = t.trace }
    in
    Array.make t.width stats
end
