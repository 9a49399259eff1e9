(* Monotonic wall clock, machine-speed calibration and the bench-side
   span recorder.

   Spans are recorded only while [recording] is set (the traced run),
   kept in memory and written once at exit, so the untraced run pays
   nothing for them.  Each span carries its parent's id and a request
   id — the index of the client call it belongs to, or -1 for set-up
   and the per-layer kernels. *)

let now_ns () = Monotonic_clock.now ()
let since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

(* The clock the traced run installs into [Psp_obs.Obs]: seconds on the
   same monotonic time base as every bench-side measurement. *)
let seconds () = Int64.to_float (now_ns ()) *. 1e-9

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, since t0)

(* Machine-speed calibration.  On a shared host the same code runs up
   to ~1.7x slower while neighbours are busy, and that drift, not the
   code, dominates run-to-run spread.  A fixed kernel of bench-local
   integer mixing — nothing from the library, so no change to the
   library can move it, and no allocation, so it never runs a slice of
   the workload's garbage collection — is timed right after every
   timed call, and the call's time is scaled by the reference time over
   the kernel's local median: the time the call would have taken on the
   machine the baseline in README.md was taken on, where the kernel's
   median is [reference_kernel_s]. *)
let reference_kernel_s = 175e-6
let kernel_state = Array.make 256 1
let kernel_samples = ref [] (* newest first *)

let kernel () =
  let s = kernel_state in
  for r = 1 to 400 do
    for i = 0 to 255 do
      let a = s.(i) and b = s.(((i * 7) + r) land 255) in
      let x = (a + b) land 0xffffffff in
      s.(i) <- ((x lsl 13) lor (x lsr 19)) lxor b land 0xffffffff
    done
  done

(* Time [n] kernel runs and return the factor that scales a time measured
   just before them to the reference speed: the reference over the median
   of the newest max(3, 2n) kernel times — these [n] and the ones taken
   just before the measured interval began. *)
let speed_scale n =
  for _ = 1 to n do
    let (), dt = time kernel in
    kernel_samples := dt :: !kernel_samples
  done;
  let recent = List.filteri (fun k _ -> k < max 3 (2 * n)) !kernel_samples in
  reference_kernel_s /. Psp_util.Stats.percentile (Array.of_list recent) 50.0

let kernel_s () = Psp_util.Stats.percentile (Array.of_list !kernel_samples) 50.0

type span = {
  id : int;
  name : string;
  parent : int;
  req : int;
  start_ns : int64;
  mutable end_ns : int64;
}

let recording = ref false
let finished : span list ref = ref []
let open_ : span list ref = ref []
let next_id = ref 0

let with_span ?(req = -1) name f =
  if not !recording then f ()
  else begin
    let parent = match !open_ with [] -> -1 | sp :: _ -> sp.id in
    let sp = { id = !next_id; name; parent; req; start_ns = now_ns (); end_ns = 0L } in
    incr next_id;
    open_ := sp :: !open_;
    Fun.protect
      ~finally:(fun () ->
        sp.end_ns <- now_ns ();
        open_ := List.tl !open_;
        finished := sp :: !finished)
      f
  end

let write_trace path =
  let module J = Psp_obs.Json in
  let span sp =
    J.Obj
      [ ("id", J.Int sp.id);
        ("name", J.String sp.name);
        ("parent", J.Int sp.parent);
        ("req", J.Int sp.req);
        ("start_ns", J.Int (Int64.to_int sp.start_ns));
        ("end_ns", J.Int (Int64.to_int sp.end_ns)) ]
  in
  let spans = List.sort (fun a b -> compare a.id b.id) !finished in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (J.to_string (J.Obj [ ("spans", J.List (List.map span spans)) ]));
      output_char oc '\n')
