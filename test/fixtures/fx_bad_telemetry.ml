(* Instrumentation as a side channel: everything recorded through
   lib/obs is visible to the (adversarial) server operator, so secret
   payloads and secret-controlled metric updates are findings. *)

module Obs = Psp_obs.Obs

let pages = Obs.counter "fx.pages"
let latency = Obs.histogram "fx.latency"

(* Recording a secret value publishes it verbatim. *)
let record_page (page [@secret]) =
  Obs.add pages page (* EXPECT: secret-telemetry *)
  [@@oblivious]

(* A secret-dependent sample value leaks just as directly. *)
let record_cost (dist [@secret]) =
  Obs.observe latency (float_of_int dist) (* EXPECT: secret-telemetry *)
  [@@oblivious]

(* A metric update under secret control publishes the branch taken,
   even though the recorded delta is a constant. *)
let count_hits (hit [@secret]) =
  if hit then (* EXPECT: secret-branch *)
    Obs.incr pages (* EXPECT: secret-telemetry *)
  [@@oblivious]

(* Secret-derived span (or instrument) names leak through the
   registry keys of every export. *)
let span_per_target (t [@secret]) =
  Obs.with_span (string_of_int t) (fun () -> ()) (* EXPECT: secret-telemetry *)
  [@@oblivious]

(* Public-plan telemetry is exactly what the layer is for: no findings. *)
let count_round rounds_in_plan (page [@secret]) =
  Obs.add pages rounds_in_plan;
  page land 0xFF
  [@@oblivious]

(* Justified escape hatch: counting inside an argued-balanced branch. *)
let counted_balanced (bit [@secret]) =
  (if bit = 1 then Obs.incr pages else Obs.incr pages)
  [@leak_ok "balanced branch: both arms perform the identical metric update"]
  [@@oblivious]

(* lib/obs itself is loaded with the fixture, and its bodies branch,
   raise and compare on what they record; a call the telemetry table
   covers is judged by the table alone, so each secret payload above is
   reported once. *)
