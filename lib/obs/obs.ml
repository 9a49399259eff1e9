(* Process-global observability registry.  Zero dependencies by design:
   everything from lib/fault up instruments through this module, so it
   must sit at the very bottom of the library stack.

   Leakage policy (DESIGN.md §5): only publicly-derivable quantities may
   reach this module.  The enforcement lives in psplint's
   secret-telemetry rule, which treats every entry point below as a
   sink; nothing here inspects its inputs. *)

(* ---------------------------------------------------------------- *)
(* Counters *)

type counter = { c_name : string; mutable c_value : int }

let counters : (string, counter) Hashtbl.t = Hashtbl.create 64

let counter name =
  match Hashtbl.find_opt counters name with
  | Some c -> c
  | None ->
      let c = { c_name = name; c_value = 0 } in
      Hashtbl.replace counters name c;
      c

let add c n =
  if n < 0 then
    invalid_arg (Printf.sprintf "Obs.add(%s): negative delta" c.c_name);
  let v = c.c_value + n in
  (* saturate instead of wrapping past max_int *)
  c.c_value <- (if v < c.c_value then max_int else v)

let incr c = add c 1
let count c = c.c_value

(* ---------------------------------------------------------------- *)
(* Gauges *)

type gauge = { mutable g_value : float }

let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16

let gauge name =
  match Hashtbl.find_opt gauges name with
  | Some g -> g
  | None ->
      let g = { g_value = 0.0 } in
      Hashtbl.replace gauges name g;
      g

let set g v = g.g_value <- v
let set_max g v = if v > g.g_value then g.g_value <- v
let get g = g.g_value

(* ---------------------------------------------------------------- *)
(* Histograms: 64 log2 buckets over a 1 ns base resolution.  Constant
   memory whatever the sample count. *)

let n_buckets = 64
let base = 1e-9

type histogram = {
  h_buckets : int array;
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16

let histogram name =
  match Hashtbl.find_opt histograms name with
  | Some h -> h
  | None ->
      let h =
        {
          h_buckets = Array.make n_buckets 0;
          h_count = 0;
          h_sum = 0.0;
          h_min = nan;
          h_max = nan;
        }
      in
      Hashtbl.replace histograms name h;
      h

let bucket_of v =
  if not (v >= base) then 0 (* catches negatives, sub-base and nan *)
  else if v = infinity then n_buckets - 1
  else
    (* v/base in [2^(e-1), 2^e)  <=>  frexp (v/base) = (_, e) *)
    let _, e = Float.frexp (v /. base) in
    if e < 1 then 1 else if e > n_buckets - 1 then n_buckets - 1 else e

let bucket_bounds i =
  if i <= 0 then (neg_infinity, base)
  else if i >= n_buckets - 1 then (base *. (2.0 ** float_of_int (n_buckets - 2)), infinity)
  else (base *. (2.0 ** float_of_int (i - 1)), base *. (2.0 ** float_of_int i))

let observe h v =
  let i = bucket_of v in
  h.h_buckets.(i) <- h.h_buckets.(i) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if h.h_count = 1 then begin
    h.h_min <- v;
    h.h_max <- v
  end
  else begin
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v
  end

let samples h = h.h_count
let sum h = h.h_sum
let min_value h = h.h_min
let max_value h = h.h_max
let bucket_count h i = h.h_buckets.(i)

let quantile h q =
  if h.h_count = 0 then nan
  else if q <= 0.0 then h.h_min
  else if q >= 1.0 then h.h_max
  else begin
    (* nearest rank over the bucket counts, then clamp the bucket's
       upper bound into the exact observed range *)
    let rank =
      let r = int_of_float (Float.ceil (q *. float_of_int h.h_count)) in
      if r < 1 then 1 else if r > h.h_count then h.h_count else r
    in
    let i = ref 0 and cum = ref h.h_buckets.(0) in
    while !cum < rank do
      Stdlib.incr i;
      cum := !cum + h.h_buckets.(!i)
    done;
    let _, hi = bucket_bounds !i in
    let v = if Float.is_finite hi then hi else h.h_max in
    Float.min h.h_max (Float.max h.h_min v)
  end

(* ---------------------------------------------------------------- *)
(* Spans *)

let clock = ref Sys.time
let set_clock f = clock := f

(* global page-I/O odometer; spans snapshot it on entry *)
let pages_total = ref 0

type span = {
  sp_path : string;
  sp_t0 : float;
  sp_alloc0 : float;
  sp_pages0 : int;
  mutable sp_open : bool;
}

type span_stats = {
  calls : int;
  seconds : float;
  alloc_bytes : float;
  pages : int;
}

type agg = {
  mutable a_calls : int;
  mutable a_seconds : float;
  mutable a_alloc : float;
  mutable a_pages : int;
}

let span_aggs : (string, agg) Hashtbl.t = Hashtbl.create 32
let stack : span list ref = ref []
let misnested () = counter "obs.span.misnested"
let add_pages n = pages_total := !pages_total + n

let current_path () =
  match !stack with [] -> "" | sp :: _ -> sp.sp_path

let enter name =
  let path =
    match !stack with [] -> name | sp :: _ -> sp.sp_path ^ "/" ^ name
  in
  let sp =
    {
      sp_path = path;
      sp_t0 = !clock ();
      sp_alloc0 = Gc.allocated_bytes ();
      sp_pages0 = !pages_total;
      sp_open = true;
    }
  in
  stack := sp :: !stack;
  sp
  [@@leak_ok
    "wall-clock and GC sampling for constant-shape spans: every plan step \
     enters its span unconditionally, so the sampling schedule is plan-derived, \
     never secret-derived"]

let finalize sp =
  sp.sp_open <- false;
  let agg =
    match Hashtbl.find_opt span_aggs sp.sp_path with
    | Some a -> a
    | None ->
        let a = { a_calls = 0; a_seconds = 0.0; a_alloc = 0.0; a_pages = 0 } in
        Hashtbl.replace span_aggs sp.sp_path a;
        a
  in
  agg.a_calls <- agg.a_calls + 1;
  agg.a_seconds <- agg.a_seconds +. (!clock () -. sp.sp_t0);
  agg.a_alloc <- agg.a_alloc +. (Gc.allocated_bytes () -. sp.sp_alloc0);
  agg.a_pages <- agg.a_pages + (!pages_total - sp.sp_pages0)
  [@@leak_ok
    "span aggregation samples the clock and allocator on the same \
     constant-shape schedule as enter; aggregates are published knowingly \
     through the snapshot API"]

let exit sp =
  if not sp.sp_open then incr (misnested ())
  else if not (List.memq sp !stack) then begin
    (* open but no longer on the stack: it was force-closed by an
       enclosing exit; the double anomaly was already counted there *)
    sp.sp_open <- false;
    incr (misnested ())
  end
  else begin
    (* force-close anything opened inside [sp] and not exited *)
    let rec pop () =
      match !stack with
      | [] -> () (* unreachable: memq checked above *)
      | top :: rest ->
          stack := rest;
          finalize top;
          if top != sp then begin
            incr (misnested ());
            pop ()
          end
    in
    pop ()
  end

let with_span name f =
  let sp = enter name in
  Fun.protect ~finally:(fun () -> exit sp) f

let span_stats path =
  Hashtbl.find_opt span_aggs path
  |> Option.map (fun a ->
         {
           calls = a.a_calls;
           seconds = a.a_seconds;
           alloc_bytes = a.a_alloc;
           pages = a.a_pages;
         })

(* ---------------------------------------------------------------- *)
(* Registry control & export *)

let reset () =
  (* zero in place: handles interned by other modules stay valid *)
  Hashtbl.iter (fun _ c -> c.c_value <- 0) counters;
  Hashtbl.iter (fun _ g -> g.g_value <- 0.0) gauges;
  Hashtbl.iter
    (fun _ h ->
      Array.fill h.h_buckets 0 n_buckets 0;
      h.h_count <- 0;
      h.h_sum <- 0.0;
      h.h_min <- nan;
      h.h_max <- nan)
    histograms;
  Hashtbl.reset span_aggs;
  List.iter (fun sp -> sp.sp_open <- false) !stack;
  stack := [];
  pages_total := 0

let sorted_keys tbl =
  Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort compare

(* The shape export: one sorted line per instrument, public fields
   only.  Durations, allocation and gauge values are content-dependent
   and deliberately absent — see the .mli preamble. *)
let shape () =
  let lines = ref [] in
  let push l = lines := l :: !lines in
  List.iter
    (fun k ->
      let c = Hashtbl.find counters k in
      push (Printf.sprintf "counter %s = %d" k c.c_value))
    (sorted_keys counters);
  List.iter (fun k -> push (Printf.sprintf "gauge %s" k)) (sorted_keys gauges);
  List.iter
    (fun k ->
      let h = Hashtbl.find histograms k in
      push (Printf.sprintf "hist %s n=%d" k h.h_count))
    (sorted_keys histograms);
  List.iter
    (fun k ->
      let a = Hashtbl.find span_aggs k in
      push (Printf.sprintf "span %s calls=%d pages=%d" k a.a_calls a.a_pages))
    (sorted_keys span_aggs);
  String.concat "\n" (List.rev !lines)

let to_json () =
  let open Json in
  let member_of_counter k = (k, Int (Hashtbl.find counters k).c_value) in
  let member_of_gauge k = (k, Float (Hashtbl.find gauges k).g_value) in
  let member_of_hist k =
    let h = Hashtbl.find histograms k in
    let buckets =
      (* sparse: only occupied buckets *)
      let acc = ref [] in
      for i = n_buckets - 1 downto 0 do
        if h.h_buckets.(i) > 0 then
          acc := List [ Int i; Int h.h_buckets.(i) ] :: !acc
      done;
      List !acc
    in
    ( k,
      Obj
        [
          ("count", Int h.h_count);
          ("sum", Float h.h_sum);
          ("min", Float h.h_min);
          ("max", Float h.h_max);
          ("p50", Float (quantile h 0.5));
          ("p95", Float (quantile h 0.95));
          ("p99", Float (quantile h 0.99));
          ("buckets", buckets);
        ] )
  in
  let member_of_span k =
    let a = Hashtbl.find span_aggs k in
    ( k,
      Obj
        [
          ("calls", Int a.a_calls);
          ("seconds", Float a.a_seconds);
          ("alloc_bytes", Float a.a_alloc);
          ("pages", Int a.a_pages);
        ] )
  in
  Obj
    [
      ("counters", Obj (List.map member_of_counter (sorted_keys counters)));
      ("gauges", Obj (List.map member_of_gauge (sorted_keys gauges)));
      ("histograms", Obj (List.map member_of_hist (sorted_keys histograms)));
      ("spans", Obj (List.map member_of_span (sorted_keys span_aggs)));
    ]

let pp fmt () =
  let pr f = Format.fprintf fmt f in
  let keys = sorted_keys counters in
  if keys <> [] then begin
    pr "counters@.";
    List.iter
      (fun k -> pr "  %-44s %d@." k (Hashtbl.find counters k).c_value)
      keys
  end;
  let keys = sorted_keys gauges in
  if keys <> [] then begin
    pr "gauges@.";
    List.iter
      (fun k -> pr "  %-44s %g@." k (Hashtbl.find gauges k).g_value)
      keys
  end;
  let keys = sorted_keys histograms in
  if keys <> [] then begin
    pr "histograms (seconds)@.";
    List.iter
      (fun k ->
        let h = Hashtbl.find histograms k in
        if h.h_count = 0 then pr "  %-44s (empty)@." k
        else
          pr "  %-44s n=%d mean=%.6g p50=%.6g p95=%.6g p99=%.6g max=%.6g@." k
            h.h_count
            (h.h_sum /. float_of_int h.h_count)
            (quantile h 0.5) (quantile h 0.95) (quantile h 0.99) h.h_max)
      keys
  end;
  let keys = sorted_keys span_aggs in
  if keys <> [] then begin
    pr "spans@.";
    List.iter
      (fun k ->
        let a = Hashtbl.find span_aggs k in
        pr "  %-44s calls=%d time=%.6gs alloc=%.3gMB pages=%d@." k a.a_calls
          a.a_seconds
          (a.a_alloc /. 1048576.0)
          a.a_pages)
      keys
  end
