(* Metric updates one call away, and guard-only justifications.  A
   helper that bumps a counter publishes the branch that reached it just
   as a direct [Obs.incr] would, so calling it under secret control is a
   finding at the call site, through the helper's summary.
   A [@leak_ok] on a match scrutinee licenses the selection alone; the
   arms are still checked. *)

module Obs = Psp_obs.Obs

let hits = Obs.counter "fx.metric_call.hits"

(* Not oblivious: it has no secret, only a metric update. *)
let note () = Obs.incr hits

(* Two calls deep: the update still reaches the caller's summary. *)
let note_via () = note ()

let count_when (hit [@secret]) =
  if hit then (* EXPECT: secret-branch *)
    note () (* EXPECT: secret-telemetry *)
  [@@oblivious]

let count_via (hit [@secret]) =
  match hit with (* EXPECT: secret-branch *)
  | true -> note_via () (* EXPECT: secret-telemetry *)
  | false -> ()
  [@@oblivious]

(* Under public control the same calls are plain telemetry. *)
let count_always () = note_via () [@@oblivious]

(* A justified scrutinee selects between values built beforehand. *)
let select (hit [@secret]) a b =
  match (hit [@leak_ok "selects between two values already computed"]) with
  | true -> a
  | false -> b
  [@@oblivious]

(* ...but the justification does not reach a metric update in an arm. *)
let select_counted (hit [@secret]) a b =
  match (hit [@leak_ok "selects between two values already computed"]) with
  | true ->
      note (); (* EXPECT: secret-telemetry *)
      a
  | false -> b
  [@@oblivious]
