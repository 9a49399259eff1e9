module Server = Psp_pir.Server
module Session = Psp_pir.Server.Session
module H = Psp_index.Header
module QP = Psp_index.Query_plan
module Obs = Psp_obs.Obs

type retry_policy = { max_attempts : int; base_backoff : float }

let default_retry = { max_attempts = 4; base_backoff = 0.1 }

type ctx = { header : H.t; psize : int }

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
(* Pacing: how a walk reports its two phase costs to a scheduler that
   places batches on a modeled timeline (Psp_serve.Timeline): the
   accounted server seconds once the last server-visible operation is
   done, and the byte volume the client decodes.  Everything reported
   is public: the accounted server seconds are plan-determined
   aggregates, and the decode byte count is plan-fixed (slot count x
   page size) by construction.  The default is inert, so callers that
   need no timeline pay nothing. *)

type pacing = {
  on_server : seconds:float -> unit;
      (* total server-side accounted seconds after the last fetch *)
  on_decode : bytes:int -> unit;
      (* plan-fixed delivered byte volume the client decodes *)
}

let sequential = { on_server = (fun ~seconds:_ -> ()); on_decode = (fun ~bytes:_ -> ()) }

(* Plan-fixed fetch slots per member: the sum of the public step list's
   window counts — every fetch the walk issues. *)
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
   reaches the server through one session serving the members in
   lockstep; a single query is a width-1 session.  The page array's
   length is the batch width; it rides down through Session.fetch into
   the oblivious store's merged pass, which serves the whole batch with
   one level scan per level per chunk.  The walk
   issues every step and nothing else: a member whose search outgrows
   the plan is reported by run_batch, never fed an extra fetch. *)

let walk (type s) (module S : SCHEME with type state = s) session ~policy ctx
    (states : s array) =
  (* One fetch slot: ask every member which page it wants; a member
     without a real need gets a dummy retrieval of page 0.  The slot is
     always issued, and the whole merged fetch retries as a unit so
     members stay in lockstep. *)
  let slot ~file =
    let (wants [@secret]) = Array.map (fun st -> S.next_page st ~file) states in
    (let (pages [@secret]) = Array.map (Option.value ~default:0) wants in
     let blobs =
       with_retry ~policy ~on_retry:(Session.note_retry session) (fun () ->
           Session.fetch session ~file ~pages)
     in
     Array.iteri
       (fun i blob ->
         match wants.(i) with
         | Some _ -> S.deliver states.(i) ~file blob
         | None -> ())
       blobs)
    [@leak_ok
      "the slot is issued whatever the members want, so the fetch count is the \
       public plan's; trip counts are the member count (the public batch size), \
       page indices are hidden by the PIR layer, and delivery is client-local"]
  in
  List.iter
    (fun step ->
      match step with
      | QP.Next_round -> Session.next_round session
      | QP.Fetch_window { file; count } ->
          Obs.with_span ("window:" ^ file) (fun () ->
              for _ = 1 to count do
                slot ~file
              done)
      | QP.Decode_barrier { label } ->
          Obs.with_span label (fun () ->
              Array.iter (fun st -> S.barrier st ~label) states))
    (QP.steps ctx.header.H.plan ~pages_per_region:ctx.header.H.pages_per_region)
  [@@oblivious]

let run_batch ?(pacing = sequential) (module S : SCHEME) session ~policy ctx queries =
  let states = Array.map (S.init ctx) queries in
  (* Phase reports are unconditional — every walk reports exactly once,
     including walks aborted by retry exhaustion or replica failure, so
     a scheduler's accounting never depends on the outcome. *)
  (match walk (module S) session ~policy ctx states with
  | () -> pacing.on_server ~seconds:(Session.accounted_seconds session)
  | exception e ->
      pacing.on_server ~seconds:(Session.accounted_seconds session);
      raise e);
  pacing.on_decode ~bytes:(Array.length queries * plan_slots ctx * ctx.psize);
  (* Each member is asked once whether the plan finished its search; one
     that still wants a page fails closed with no answer.  Its trace is
     the plan's like every other member's. *)
  Obs.with_span "solve" (fun () ->
      Array.map
        (fun st ->
          (if S.exhausted st then Some (S.answer st) else None)
          [@leak_ok
            "client-local, after the last server-visible operation: every member \
             walked the same padded plan, so the server observes nothing of which \
             members finished"])
        states)
  [@@oblivious]
