(* The modeled two-resource timeline: a serial server (fetch intervals
   never overlap each other) and a bounded window (batch i's fetch waits
   for batch i-depth's completion).  Nothing here executes a batch; the
   scheduler runs each one to completion and places it afterwards. *)

module Obs = Psp_obs.Obs

let m_depth = Obs.gauge "pipeline.depth"
let m_batches = Obs.counter "pipeline.batches"
let m_overlap = Obs.histogram "pipeline.overlap_seconds"
let m_overlap_fraction = Obs.gauge "pipeline.overlap_fraction"

type job = {
  started : float;
  fetch_end : float;
  completed : float;
  mutable overlap : float;
}

type t = {
  depth : int;
  mutable server_free : float;  (* end of the last fetch interval *)
  mutable window : job list;  (* the last [<= depth] placed jobs, oldest first *)
  mutable makespan : float;
  mutable total_decode : float;
  mutable total_overlap : float;
}

let create ~depth =
  if depth < 1 then invalid_arg "Timeline.create: depth must be >= 1";
  Obs.set m_depth (float_of_int depth);
  { depth;
    server_free = 0.0;
    window = [];
    makespan = 0.0;
    total_decode = 0.0;
    total_overlap = 0.0 }

(* The window gate is the completion instant of the job [depth]
   placements ago; overlap is the intersection of this fetch interval
   with the decode intervals still in the window. *)
let place t ~ready ~fetch ~decode =
  if not (ready >= 0.0 && fetch >= 0.0 && decode >= 0.0) then
    invalid_arg "Timeline.place: negative instant or cost";
  let gate =
    if List.length t.window >= t.depth then (List.hd t.window).completed
    else neg_infinity
  in
  let started = Float.max ready (Float.max t.server_free gate) in
  let fetch_end = started +. fetch in
  let job = { started; fetch_end; completed = fetch_end +. decode; overlap = 0.0 } in
  t.server_free <- fetch_end;
  t.makespan <- Float.max t.makespan job.completed;
  t.total_decode <- t.total_decode +. decode;
  List.iter
    (fun w ->
      let lo = Float.max started w.fetch_end and hi = Float.min fetch_end w.completed in
      if hi > lo then begin
        w.overlap <- w.overlap +. (hi -. lo);
        t.total_overlap <- t.total_overlap +. (hi -. lo)
      end)
    t.window;
  Obs.incr m_batches;
  (match t.window @ [ job ] with
  | oldest :: rest when List.length rest >= t.depth ->
      Obs.observe m_overlap oldest.overlap;
      t.window <- rest
  | window -> t.window <- window);
  job

let finish t =
  List.iter (fun w -> Obs.observe m_overlap w.overlap) t.window;
  t.window <- [];
  Obs.set m_overlap_fraction
    (if t.total_decode > 0.0 then t.total_overlap /. t.total_decode else 0.0)

let makespan t = t.makespan
