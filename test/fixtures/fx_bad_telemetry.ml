(* Instrumentation as a side channel: everything recorded through
   lib/obs is visible to the (adversarial) server operator, so secret
   payloads and secret-controlled metric updates are findings. *)

module Obs = Psp_obs.Obs

let pages = Obs.counter "fx.pages"
let latency = Obs.histogram "fx.latency"

(* Recording a secret value publishes it verbatim. *)
let record_page (page [@secret]) =
  Obs.add pages page (* EXPECT: secret-telemetry *) (* EXPECT: secret-branch *) (* EXPECT: secret-branch *) (* EXPECT: secret-exception *) (* EXPECT: secret-exception *)
  [@@oblivious]

(* A secret-dependent sample value leaks just as directly. *)
let record_cost (dist [@secret]) =
  Obs.observe latency (float_of_int dist) (* EXPECT: secret-telemetry *) (* EXPECT: secret-branch *) (* EXPECT: secret-branch *)
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
  Obs.with_span (string_of_int t) (fun () -> ()) (* EXPECT: secret-telemetry *) (* EXPECT: secret-branch *) (* EXPECT: secret-compare *)
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

(* The extra markers on the secret-payload lines above come from lib/obs
   itself, which the analysis loads: a secret handed to a sink is
   reported once by the telemetry table and again by the sink's own
   summary wherever Obs's body branches, raises or compares on that
   argument. *)
