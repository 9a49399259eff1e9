(* perf.exe — wall-clock benchmark of the executed query path.

     dune exec ./bench/perf/perf.exe -- --workload ci-w1 --seed 1 --seconds 10 --trace 0

   One workload per process, single-threaded.  Set-up (graph generation,
   database build, server creation) runs [setup_reps] times and reports
   the median.  The timed phase then calls the client API back to back
   until [--seconds] have passed ([--queries N] bounds it by query count
   instead, for the determinism smoke test).

   [--trace 0] reports the end-to-end metrics, their timings calibrated
   to a reference machine speed (see [Timing]).  [--trace 1] spends the
   first half of the phase untraced and the second half traced — Obs
   spans on the monotonic clock plus bench-side spans — and reports the
   per-layer metrics; the throughput of the two halves gives the cost of
   tracing.  Every metric is printed as [name value unit], written to
   BENCH_perf_<workload>.json, and summarised on the last line as one
   JSON object.  See README.md for the metric catalog. *)

module Obs = Psp_obs.Obs
module J = Psp_obs.Json
module W = Workloads
module QP = Psp_index.Query_plan
module PF = Psp_storage.Page_file

let setup_reps = 3

let workload = ref ""
let seed = ref 0
let seconds = ref 10.0
let trace = ref 0
let scale = ref 2.0
let queries = ref 0

let usage =
  "perf.exe --workload (" ^ String.concat "|" W.names
  ^ ") --seed N --seconds S --trace 0|1 [--scale F] [--queries N]"

let die msg =
  prerr_endline ("perf: " ^ msg);
  prerr_endline usage;
  exit 2

let () =
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed for queries, arrivals and faults");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--scale", Arg.Set_float scale, "F network scale divisor (default 2)");
      ("--queries", Arg.Set_int queries, "N stop after N queries instead of S seconds") ]
    (fun a -> die ("unexpected argument " ^ a))
    usage;
  if not (List.mem !workload W.names) then die ("unknown workload " ^ !workload);
  if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
  if !seconds <= 0.0 || !scale <= 0.0 || !queries < 0 then die "bad --seconds/--scale/--queries"

(* ------------------------------------------------------------------ *)

let pct xs q = Psp_util.Stats.percentile (Array.of_list xs) q
let median xs = pct xs 50.0
let per t x = x /. float_of_int (max 1 t.W.queries)

(* Timed calls until the phase's budget is spent. *)
let run_phase (w : W.t) ~first ~seconds ~queries =
  let t = W.tally () in
  let t0 = Timing.now_ns () in
  let i = ref first in
  let more () = if queries > 0 then t.W.queries < queries else Timing.since t0 < seconds in
  while more () do
    w.W.step !i t;
    incr i
  done;
  (t, !i)

let heap_peak_mb () = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * 8) /. 1e6

(* ------------------------------------------------------------------ *)
(* Per-layer kernels, run after the traced phase on the workload's own
   sealed files.  Each runs for [budget] seconds and at least [min_iter]
   iterations. *)

let loop ~budget ~min_iter f =
  let t0 = Timing.now_ns () in
  let k = ref 0 in
  while !k < min_iter || Timing.since t0 < budget do
    f !k;
    incr k
  done;
  (!k, Timing.since t0)

(* Direct reads on a twin pyramid over the largest file.  The cost of a
   read does not depend on the page (obliviousness), so pages cycle. *)
let store_reads files ~budget =
  Timing.with_span "kernel.store_read" (fun () ->
      let f =
        List.fold_left
          (fun a b -> if PF.page_count b > PF.page_count a then b else a)
          (List.hd files) files
      in
      let store = Psp_pir.Pyramid_store.create ~key:W.key f in
      let n = PF.page_count f in
      let samples = ref [] in
      ignore
        (loop ~budget ~min_iter:256 (fun k ->
             let _, dt = Timing.time (fun () -> Psp_pir.Pyramid_store.read store (k mod n)) in
             samples := dt :: !samples));
      !samples)

(* Seconds per page of [check] over every page of every file. *)
let per_page files ~budget name check =
  Timing.with_span name (fun () ->
      let pages =
        List.concat_map (fun f -> List.init (PF.page_count f) (fun i -> (f, i, PF.read f i))) files
      in
      let sweeps, dt =
        loop ~budget ~min_iter:1 (fun _ ->
            List.iter (fun (f, i, page) -> ignore (Sys.opaque_identity (check f i page))) pages)
      in
      dt /. float_of_int (sweeps * List.length pages))

let per_call ~budget name f =
  Timing.with_span name (fun () ->
      let calls, dt = loop ~budget ~min_iter:16 (fun _ -> ignore (Sys.opaque_identity (f ()))) in
      dt /. float_of_int calls)

(* ------------------------------------------------------------------ *)
(* Obs span aggregates of the traced phase, at the plan positions the
   library opens spans at: query → plan, window:<file> → pir_fetch
   (pir_fetch_batch when batched), <decode barrier>, solve. *)

type layers = {
  query : float;
  plan : float;
  window : float;
  fetch : float;
  decode : float;
  solve : float;
}

let layers (dbs : Psp_index.Database.t list) =
  let span path =
    match Obs.span_stats path with Some s -> s.Obs.seconds | None -> 0.0
  in
  let steps =
    List.concat_map
      (fun (db : Psp_index.Database.t) ->
        let h = db.Psp_index.Database.header in
        QP.steps h.Psp_index.Header.plan ~pages_per_region:h.Psp_index.Header.pages_per_region)
      dbs
  in
  let uniq f = List.sort_uniq compare (List.filter_map f steps) in
  let files = uniq (function QP.Fetch_window { file; _ } -> Some file | _ -> None) in
  let labels = uniq (function QP.Decode_barrier { label } -> Some label | _ -> None) in
  let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs in
  { query = span "query";
    plan = span "query/plan";
    window = sum (fun f -> span ("query/window:" ^ f)) files;
    fetch =
      sum
        (fun f ->
          span ("query/window:" ^ f ^ "/pir_fetch")
          +. span ("query/window:" ^ f ^ "/pir_fetch_batch"))
        files;
    decode = sum (fun l -> span ("query/" ^ l)) labels;
    solve = span "query/solve" }

(* ------------------------------------------------------------------ *)

(* A measured time with the speed scale of the moment it was taken
   ([Timing.speed_scale]): the reported figure is calibrated to the
   reference speed, the record in the JSON artifact is not. *)
let value ~calibrate (x, scale) = if calibrate then x *. scale else x

(* Answered queries per second of call time, as the median over
   consecutive windows of at least one second: a burst of machine noise
   inside a run moves one window, not the reported rate.  A remainder
   shorter than a window is dropped unless it is all there is. *)
let throughput ~calibrate (t : W.tally) =
  let rate (wall, q) = float_of_int q /. wall in
  let windows, rest =
    List.fold_left
      (fun (done_, (wall, q)) (dt, scale, n) ->
        let acc = (wall +. value ~calibrate (dt, scale), q + n) in
        if fst acc >= 1.0 then (rate acc :: done_, (0.0, 0)) else (done_, acc))
      ([], (0.0, 0))
      (List.rev t.W.calls)
  in
  median (if windows = [] then [ rate rest ] else windows)

let end_to_end ~calibrate (t : W.tally) ~setups =
  let samples = List.map (value ~calibrate) t.W.samples_ms in
  [ ("query_p50_ms", "ms", pct samples 50.0);
    ("query_p90_ms", "ms", pct samples 90.0);
    ("throughput_qps", "q/s", throughput ~calibrate t);
    ( "setup_s",
      "s",
      median (List.map (fun ((g, b, s), scale) -> value ~calibrate (g +. b +. s, scale)) setups)
    );
    ("heap_peak_mb", "MB", heap_peak_mb ()) ]

let per_layer (w : W.t) setups ~(untraced : W.tally) ~(traced : W.tally)
    ~touches ~scans ~rebuilds =
  let l = layers w.W.dbs in
  let t = traced in
  let ms x = 1e3 *. per t x in
  let walk_self = l.window -. l.fetch in
  let files = List.concat_map Psp_index.Database.files w.W.dbs in
  let budget = 0.04 *. !seconds in
  let reads = store_reads files ~budget in
  let key = W.key in
  let verify = per_page files ~budget "kernel.verify" PF.verify_page in
  let authenticate =
    per_page files ~budget "kernel.authenticate" (fun f i page -> PF.authenticate f ~key i page)
  in
  let blob = Bytes.make 4096 'x' and nonce = Bytes.make 12 'n' in
  let chacha =
    per_call ~budget "kernel.chacha20" (fun () -> Psp_crypto.Chacha20.encrypt ~key ~nonce blob)
  in
  let sha = per_call ~budget "kernel.sha256" (fun () -> Psp_crypto.Sha256.digest blob) in
  let widths = float_of_int t.W.queries /. float_of_int (max 1 t.W.batches) in
  let setup f = median (List.map (fun (times, _) -> f times) setups) in
  [ ("calib.kernel_us", "us", 1e6 *. Timing.kernel_s ());
    ("netgen.graph_s", "s", setup (fun (g, _, _) -> g));
    ("index.build_s", "s", setup (fun (_, b, _) -> b));
    ("pir.server_create_s", "s", setup (fun (_, _, s) -> s));
    ("core.plan_ms", "ms", ms l.plan);
    ("core.walk_self_ms", "ms", ms walk_self);
    ("core.decode_ms", "ms", ms l.decode);
    ("core.solve_ms", "ms", ms l.solve);
    ("core.query_self_ms", "ms", ms (l.query -. l.plan -. l.window -. l.decode -. l.solve));
    ( "core.attributed_frac",
      "ratio",
      (l.plan +. walk_self +. l.fetch +. l.decode +. l.solve) /. t.W.wall_s );
    ("pir.fetch_ms_per_query", "ms", ms l.fetch);
    ("pir.fetch_share", "ratio", l.fetch /. l.query);
    ("pir.store_read_p50_us", "us", 1e6 *. pct reads 50.0);
    ("pir.store_read_p95_us", "us", 1e6 *. pct reads 95.0);
    ("pir.store_read_max_ms", "ms", 1e3 *. pct reads 100.0);
    ("pir.slot_touches_per_query", "count", per t (float_of_int touches));
    ("pir.level_scans_per_query", "count", per t (float_of_int scans));
    ("pir.rebuilds_per_query", "count", per t (float_of_int rebuilds));
    ("storage.verify_us_per_page", "us", 1e6 *. verify);
    ("storage.authenticate_us_per_page", "us", 1e6 *. authenticate);
    ("crypto.chacha20_4k_us", "us", 1e6 *. chacha);
    ("crypto.sha256_4k_us", "us", 1e6 *. sha);
    ("serve.dispatch_self_frac", "ratio", 1.0 -. (l.query /. t.W.wall_s));
    ("serve.mean_width", "count", widths);
    ("pir.failovers_per_query", "count", per t (float_of_int t.W.failovers));
    ("pir.retries_per_query", "count", per t (float_of_int t.W.retries));
    ( "pir.replay_waste_frac",
      "ratio",
      float_of_int t.W.abandoned_fetches /. float_of_int (max 1 t.W.fetches) );
    ("model.pir_s_per_query", "s", per t t.W.pir_s);
    ("model.comm_s_per_query", "s", per t t.W.comm_s);
    ("pir.measured_over_model", "ratio", l.fetch /. t.W.pir_s);
    ("model.p50_s", "s", pct t.W.model_s 50.0);
    ("model.p95_s", "s", pct t.W.model_s 95.0);
    ("model.slo_rate_qph", "q/h", w.W.slo_rate_qph t);
    ("gc.alloc_mb_per_query", "MB", per t (t.W.alloc_bytes /. 1e6));
    ("gc.major_per_query", "count", per t (float_of_int t.W.majors));
    ( "obs.trace_overhead_frac",
      "ratio",
      1.0 -. (throughput ~calibrate:true traced /. throughput ~calibrate:true untraced) ) ]

(* ------------------------------------------------------------------ *)

let () =
  let traced = !trace = 1 in
  Timing.recording := traced;
  (* only the last set-up is kept; earlier ones are garbage before the
     next starts, so they do not inflate the heap *)
  let last = ref None and setups = ref [] in
  for _ = 1 to setup_reps do
    last := None;
    Gc.full_major ();
    let s = Timing.with_span "setup" (fun () -> W.setup !workload ~scale:!scale ~seed:!seed) in
    setups := ((s.W.graph_s, s.W.build_s, s.W.server_s), Timing.speed_scale 10) :: !setups;
    last := Some s
  done;
  let w = Option.get !last and setups = !setups in
  Gc.full_major ();
  let executed f = List.fold_left (fun acc s -> acc + f s) 0 w.W.servers in
  let tallies, metrics, raw =
    if not traced then
      let t, _ = run_phase w ~first:0 ~seconds:!seconds ~queries:!queries in
      ( [ t ],
        end_to_end ~calibrate:true t ~setups,
        end_to_end ~calibrate:false t ~setups )
    else begin
      let seconds = !seconds /. 2.0 and queries = (!queries + 1) / 2 in
      Timing.recording := false;
      let untraced, next = run_phase w ~first:0 ~seconds ~queries in
      Timing.recording := true;
      Obs.reset ();
      Obs.set_clock Timing.seconds;
      let touches0 = executed Psp_pir.Server.executed_slot_touches in
      let scans0 = executed Psp_pir.Server.executed_level_scans in
      let t, _ = run_phase w ~first:next ~seconds ~queries in
      let touches = executed Psp_pir.Server.executed_slot_touches - touches0 in
      let scans = executed Psp_pir.Server.executed_level_scans - scans0 in
      let rebuilds = Obs.count (Obs.counter "oram.pyramid.rebuilds") in
      ( [ untraced; t ],
        per_layer w setups ~untraced ~traced:t ~touches ~scans ~rebuilds,
        [] )
    end
  in
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 tallies in
  let attempted = sum (fun t -> t.W.queries) in
  let wrong = sum (fun t -> t.W.wrong) and leaks = sum (fun t -> t.W.leaks) in
  let failed = sum (fun t -> t.W.failed) + wrong + leaks in
  let correct = wrong = 0 && leaks = 0 in
  List.iter (fun (name, unit, v) -> Printf.printf "%s %.6g %s\n" name v unit) metrics;
  Printf.printf "# attempted %d failed %d wrong %d privacy %d error_rate %.6g\n" attempted failed
    wrong leaks
    (float_of_int failed /. float_of_int (max 1 attempted));
  let to_json metrics =
    J.Obj
      (List.map
         (fun (name, unit, v) -> (name, J.Obj [ ("value", J.Float v); ("unit", J.String unit) ]))
         metrics)
  in
  let result =
    [ ("correct", J.Bool correct);
      ("attempted", J.Int attempted);
      ("failed", J.Int failed);
      ("metrics", to_json metrics) ]
  in
  let base = "BENCH_perf_" ^ !workload in
  Out_channel.with_open_text (base ^ ".json") (fun oc ->
      output_string oc
        (J.to_string_pretty
           (J.Obj
              ([ ("workload", J.String !workload);
                 ("seed", J.Int !seed);
                 ("scale", J.Float !scale);
                 ("seconds", J.Float !seconds);
                 ("trace", J.Int !trace);
                 ("kernel_us", J.Float (1e6 *. Timing.kernel_s ()));
                 ("uncalibrated", to_json raw) ]
              @ result)));
      output_char oc '\n');
  if traced then Timing.write_trace (base ^ ".trace.json");
  print_endline (J.to_string (J.Obj result));
  (* the fault-free workloads must be exact and private; the chaos mix
     may leave a query unavailable but never wrong *)
  if (not correct) || (failed > 0 && !workload <> "ci-chaos-r3") then exit 1
