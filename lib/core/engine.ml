module Server = Psp_pir.Server
module Session = Psp_pir.Server.Session
module Batcher = Psp_pir.Batcher
module H = Psp_index.Header
module QP = Psp_index.Query_plan
module Obs = Psp_obs.Obs

type retry_policy = { max_attempts : int; base_backoff : float }

let default_retry = { max_attempts = 4; base_backoff = 0.1 }

type ctx = { header : H.t; psize : int; pad : bool }

type query = { rs : int; rt : int; sx : float; sy : float; tx : float; ty : float }

type answer = (int list * float) option * int

module type SCHEME = sig
  type state

  val init : ctx -> query -> state
  val next_page : state -> file:string -> int option
  val deliver : state -> file:string -> bytes -> unit
  val barrier : state -> label:string -> unit
  val exhausted : state -> bool
  val answer : state -> answer
end

type scheme = (module SCHEME)

(* ------------------------------------------------------------------ *)
(* Retry (moved here from the client so the engine owns it once)        *)

exception Gave_up of { point : string; attempts : int }

let recoverable = function
  | Psp_fault.Fault.Injected { point; _ } -> Some point
  | Server.Page_corrupt { file; _ } -> Some (Printf.sprintf "pir.fetch.corrupt(%s)" file)
  | _ -> None

(* Replica-level failures are deliberately NOT [recoverable]: retrying a
   tampering host in place would hand the adversary another shot, and a
   dead or stalled replica will not answer the re-issued request either.
   The client's failover loop replays the whole public plan against the
   next replica instead (docs/RESILIENCE.md).  As with [recoverable],
   the classification redacts to public data: file names and replica
   indices, never page numbers. *)
let failover_class = function
  | Server.Tampered { file; _ } -> Some (Printf.sprintf "pir.fetch.tamper(%s)" file)
  | Server.Replica_down { replica } -> Some (Printf.sprintf "pir.replica.down(%d)" replica)
  | Server.Replica_timeout { replica; _ } ->
      Some (Printf.sprintf "pir.replica.timeout(%d)" replica)
  | _ -> None

(* Bounded retry with deterministic exponential backoff.  Obliviousness
   hinges on the schedule here: whether, when and how long we retry is a
   function of the fault outcome and the attempt number alone — never of
   the query's coordinates, pages or intermediate results.  A retried
   fetch re-issues the identical page request(s), so under a fixed fault
   schedule every query's trace gains the same extra events in the same
   places (DESIGN.md, "Failure handling"). *)
let with_retry ~policy ~on_retry op =
  let rec go attempt =
    match op () with
    | v -> v
    | exception e -> (
        match recoverable e with
        | None -> raise e
        | Some point ->
            if attempt >= policy.max_attempts then
              raise (Gave_up { point; attempts = attempt })
            else begin
              on_retry
                ~backoff:
                  (Psp_pir.Cost_model.retry_backoff_seconds ~base:policy.base_backoff
                     ~attempt);
              go (attempt + 1)
            end)
  in
  go 1
  [@@oblivious]

(* ------------------------------------------------------------------ *)
(* Pacing: how a walk reports its phase boundaries to an execution
   scheduler.  A pipelined executor (Psp_async.Pipeline) threads a
   record whose [on_release] suspends the running fiber at the release
   point — after the last server-visible operation, before the
   client-local solve — so the next batch's PIR pass can start while
   this batch decodes.  Everything reported is public: the accounted
   server seconds are plan-determined aggregates, and the decode byte
   count is plan-fixed (slot count x page size, overflow excluded) by
   construction.  The default is inert, so sequential callers pay
   nothing. *)

type pacing = {
  on_server : seconds:float -> unit;
      (* total server-side accounted seconds at the release point *)
  on_decode : bytes:int -> unit;
      (* plan-fixed delivered byte volume the client decodes *)
  on_release : unit -> unit;
      (* the suspension point: server done, client tail remains *)
}

let sequential =
  { on_server = (fun ~seconds:_ -> ());
    on_decode = (fun ~bytes:_ -> ());
    on_release = (fun () -> ()) }

(* Plan-fixed fetch slots per member: the sum of the public step list's
   window counts.  Overflow fetches are deliberately excluded — their
   count is query-dependent (the documented access-pattern cost of the
   unpadded/overflow modes), so pricing them would leak. *)
let plan_slots ctx =
  List.fold_left
    (fun acc step ->
      match step with
      | QP.Fetch_window { count; _ } -> acc + count
      | QP.Next_round | QP.Decode_barrier _ -> acc)
    0
    (QP.steps ctx.header.H.plan ~pages_per_region:ctx.header.H.pages_per_region)

(* ------------------------------------------------------------------ *)
(* The walker: one engine drives every scheme over the public step list,
   owning padding, retry, telemetry spans and — by construction — trace
   conformance (Privacy.expected_trace folds over the same list).  It
   reaches the server through one batcher multiplexing the members'
   lockstep sessions; a single query is a width-1 batcher.  The page
   array's length is the batch width; it rides down through
   Batcher.fetch into the oblivious store's merged pass, which serves
   the whole batch with one level scan per level per chunk. *)

let walk (type s) (module S : SCHEME with type state = s) batcher ~policy ctx
    (states : s array) =
  let all_exhausted () =
    Array.for_all S.exhausted states
    [@leak_ok
      "consulted only to stop rounds that would be pure padding when padding is \
       disabled (calibration) or the plan has overflowed — both documented \
       access-pattern costs of the unpadded/incremental modes"]
  in
  (* One fetch slot: ask every member which page it wants; a member
     without a real need gets a dummy retrieval of page 0.  The slot is
     issued iff padding demands it or some member has a real request, and
     the whole merged fetch retries as a unit so members stay in
     lockstep.  Returns whether any member had a real request. *)
  let slot ~pad_slot ~file =
    let (wants [@secret]) = Array.map (fun st -> S.next_page st ~file) states in
    let any_real =
      (Array.exists Option.is_some wants
      [@leak_ok
        "trip count is the member count (the public batch size); which members \
         carry a real request stays inside the option payloads"])
    in
    (if pad_slot || any_real then begin
       let (pages [@secret]) = Array.map (Option.value ~default:0) wants in
       let blobs =
         with_retry ~policy ~on_retry:(Batcher.note_retry batcher) (fun () ->
             Batcher.fetch batcher ~file ~pages)
       in
       Array.iteri
         (fun i blob ->
           match wants.(i) with
           | Some _ -> S.deliver states.(i) ~file blob
           | None -> ())
         blobs
     end)
    [@leak_ok
      "with padding on, the slot is issued unconditionally — the branch is \
       constant-true and the fetch count is the public plan's; page indices are \
       hidden by the PIR layer, and delivery is client-local"];
    any_real
  in
  List.iter
    (fun step ->
      match step with
      | QP.Next_round ->
          (if ctx.pad || not (all_exhausted ()) then Batcher.next_round batcher)
          [@leak_ok
            "with padding on, every plan round runs — the branch is constant-true; \
             unpadded (calibration) runs already forgo the plan's shape"]
      | QP.Fetch_window { file; count } ->
          Obs.with_span ("window:" ^ file) (fun () ->
              for _ = 1 to count do
                ignore (slot ~pad_slot:ctx.pad ~file)
              done)
      | QP.Decode_barrier { label } ->
          Obs.with_span label (fun () ->
              Array.iter (fun st -> S.barrier st ~label) states))
    (QP.steps ctx.header.H.plan ~pages_per_region:ctx.header.H.pages_per_region);
  (* Overflow: a query that out-grows a mis-calibrated plan keeps
     fetching (HY long records, LM/AF searches) instead of failing — the
     trace deviation is the access-pattern cost those schemes accept,
     and Calibrate exists to make this loop unreachable.  No spans here:
     a span call count that depends on the query would break the
     constant-shape telemetry policy. *)
  (match QP.overflow ctx.header.H.plan with
  | None -> ()
  | Some { QP.file; window; per_round } ->
      let continue_ = ref (not (all_exhausted ())) in
      while !continue_ do
        if per_round then Batcher.next_round batcher;
        let any = ref false in
        for _ = 1 to window do
          if slot ~pad_slot:false ~file then any := true
        done;
        continue_ := !any && not (all_exhausted ())
      done)
  [@leak_ok
    "overflow fetches beyond the public plan are LM/AF/HY's documented \
     access-pattern cost; the loop stops as soon as no member needs real data"]
  [@@oblivious]

let run_batch ?(pacing = sequential) (module S : SCHEME) batcher ~policy ctx queries =
  if Array.length queries <> Batcher.width batcher then
    invalid_arg "Engine.run_batch: one query per batcher session required";
  let states = Array.map (S.init ctx) queries in
  let accounted () =
    Array.fold_left
      (fun acc s -> acc +. Session.accounted_seconds s)
      0.0 (Batcher.sessions batcher)
  in
  (* Phase reports are unconditional — every walk reports exactly once,
     including walks aborted by retry exhaustion or replica failure, so
     an execution scheduler's accounting never depends on the outcome.
     The release point sits after the last server-visible operation
     (the overflow loop included): a suspended fiber has nothing left
     to say to the server, so resuming it later cannot reorder the
     server-visible schedule. *)
  (match walk (module S) batcher ~policy ctx states with
  | () -> pacing.on_server ~seconds:(accounted ())
  | exception e ->
      pacing.on_server ~seconds:(accounted ());
      raise e);
  pacing.on_decode ~bytes:(Array.length queries * plan_slots ctx * ctx.psize);
  pacing.on_release ();
  Obs.with_span "solve" (fun () -> Array.map S.answer states)
  [@@oblivious]
