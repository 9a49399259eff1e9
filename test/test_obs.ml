(* The observability substrate: histogram bucket geometry, counter
   saturation, span nesting and misnesting, JSON exporter round-trip
   (through an independent mini-parser), and the headline constant-shape
   invariant — two distinct (s, t) queries under the same public plan
   must leave byte-identical metric shapes behind. *)

module Obs = Psp_obs.Obs
module Json = Psp_obs.Json
module DB = Psp_index.Database
module Server = Psp_pir.Server
open Psp_core

(* ------------------------------------------------------------------ *)
(* Histograms *)

let test_bucket_boundaries () =
  let base = 1e-9 in
  Alcotest.(check int) "zero -> bucket 0" 0 (Obs.bucket_of 0.0);
  Alcotest.(check int) "negative -> bucket 0" 0 (Obs.bucket_of (-1.0));
  Alcotest.(check int) "nan -> bucket 0" 0 (Obs.bucket_of nan);
  Alcotest.(check int) "below base -> bucket 0" 0 (Obs.bucket_of (base /. 2.0));
  Alcotest.(check int) "base -> bucket 1" 1 (Obs.bucket_of base);
  Alcotest.(check int) "just below 2*base -> bucket 1" 1
    (Obs.bucket_of (base *. 1.999));
  Alcotest.(check int) "2*base -> bucket 2" 2 (Obs.bucket_of (base *. 2.0));
  Alcotest.(check int) "1 second" (Obs.bucket_of 1.0) 30;
  Alcotest.(check int) "huge -> overflow bucket" 63 (Obs.bucket_of 1e30);
  Alcotest.(check int) "infinity -> overflow bucket" 63 (Obs.bucket_of infinity);
  (* the buckets tile the line: every bound is its own bucket's lower edge *)
  for i = 1 to 62 do
    let lo, hi = Obs.bucket_bounds i in
    Alcotest.(check int) (Printf.sprintf "lower bound of bucket %d" i) i
      (Obs.bucket_of lo);
    Alcotest.(check int)
      (Printf.sprintf "upper bound of bucket %d opens bucket %d" i (i + 1))
      (i + 1) (Obs.bucket_of hi)
  done

let test_histogram_stats () =
  Obs.reset ();
  let h = Obs.histogram "t.hist" in
  Alcotest.(check int) "empty count" 0 (Obs.samples h);
  Alcotest.(check bool) "empty quantile is nan" true
    (Float.is_nan (Obs.quantile h 0.5));
  List.iter (Obs.observe h) [ 0.004; 0.001; 0.002; 0.003; 0.1 ];
  Alcotest.(check int) "count" 5 (Obs.samples h);
  Alcotest.(check (float 1e-12)) "sum" 0.110 (Obs.sum h);
  Alcotest.(check (float 0.0)) "min" 0.001 (Obs.min_value h);
  Alcotest.(check (float 0.0)) "max" 0.1 (Obs.max_value h);
  Alcotest.(check int) "bucket occupancy" 5
    (List.fold_left (fun acc i -> acc + Obs.bucket_count h i) 0
       (List.init 64 Fun.id));
  (* log2 estimate: within a factor of 2 above the true quantile, and
     clamped into the observed range *)
  let p50 = Obs.quantile h 0.5 in
  Alcotest.(check bool) "p50 in (true, 2*true]" true (p50 >= 0.002 && p50 <= 0.008);
  Alcotest.(check (float 0.0)) "p0 clamps to min" 0.001 (Obs.quantile h 0.0);
  Alcotest.(check (float 0.0)) "p100 clamps to max" 0.1 (Obs.quantile h 1.0)

(* ------------------------------------------------------------------ *)
(* Counters *)

let test_counter_overflow () =
  Obs.reset ();
  let c = Obs.counter "t.ctr" in
  Obs.incr c;
  Obs.add c 41;
  Alcotest.(check int) "normal arithmetic" 42 (Obs.count c);
  Obs.add c (max_int - 10);
  Alcotest.(check int) "saturates at max_int" max_int (Obs.count c);
  Obs.incr c;
  Alcotest.(check int) "stays saturated" max_int (Obs.count c);
  Alcotest.check_raises "negative delta rejected"
    (Invalid_argument "Obs.add(t.ctr): negative delta") (fun () -> Obs.add c (-1));
  Alcotest.(check int) "interning returns the same handle" max_int
    (Obs.count (Obs.counter "t.ctr"))

(* ------------------------------------------------------------------ *)
(* Spans *)

let misnest_count () = Obs.count (Obs.counter "obs.span.misnested")

let test_span_nesting () =
  Obs.reset ();
  let ticks = ref 0.0 in
  Obs.set_clock (fun () -> !ticks);
  Fun.protect ~finally:(fun () -> Obs.set_clock Sys.time) @@ fun () ->
  Obs.with_span "query" (fun () ->
      ticks := !ticks +. 1.0;
      Obs.with_span "fetch" (fun () ->
          Alcotest.(check string) "path" "query/fetch" (Obs.current_path ());
          Obs.add_pages 3;
          ticks := !ticks +. 2.0);
      Obs.with_span "fetch" (fun () -> Obs.add_pages 1));
  Alcotest.(check string) "stack unwound" "" (Obs.current_path ());
  (match Obs.span_stats "query/fetch" with
  | None -> Alcotest.fail "no aggregate for query/fetch"
  | Some s ->
      Alcotest.(check int) "two calls" 2 s.Obs.calls;
      Alcotest.(check (float 1e-9)) "inner time" 2.0 s.Obs.seconds;
      Alcotest.(check int) "pages attributed" 4 s.Obs.pages);
  (match Obs.span_stats "query" with
  | None -> Alcotest.fail "no aggregate for query"
  | Some s ->
      Alcotest.(check int) "one call" 1 s.Obs.calls;
      Alcotest.(check (float 1e-9)) "inclusive time" 3.0 s.Obs.seconds;
      Alcotest.(check int) "inclusive pages" 4 s.Obs.pages);
  Alcotest.(check int) "clean nesting" 0 (misnest_count ())

let test_span_misnesting () =
  Obs.reset ();
  (* exiting an outer span force-closes the inner one *)
  let a = Obs.enter "a" in
  let b = Obs.enter "b" in
  Obs.exit a;
  Alcotest.(check int) "inner force-close counted" 1 (misnest_count ());
  Alcotest.(check bool) "inner still aggregated" true (Obs.span_stats "a/b" <> None);
  Alcotest.(check string) "stack empty" "" (Obs.current_path ());
  (* the stale handle is already closed: counted again, no crash *)
  Obs.exit b;
  Alcotest.(check int) "double exit counted" 2 (misnest_count ());
  (* exceptions do not leak open spans *)
  (try Obs.with_span "boom" (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check string) "protected exit" "" (Obs.current_path ());
  Alcotest.(check int) "exception path is not a misnest" 2 (misnest_count ())

(* ------------------------------------------------------------------ *)
(* JSON exporter round-trip, via an independent mini-parser *)

type json =
  | JNull
  | JBool of bool
  | JNum of float
  | JStr of string
  | JList of json list
  | JObj of (string * json) list

exception Parse of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail m = raise (Parse (Printf.sprintf "%s at %d" m !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = Some c then advance ()
    else fail (Printf.sprintf "expected %c" c)
  in
  let lit word v =
    String.iter expect word;
    v
  in
  let string_body () =
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          (match peek () with
          | Some '"' -> Buffer.add_char buf '"'
          | Some '\\' -> Buffer.add_char buf '\\'
          | Some '/' -> Buffer.add_char buf '/'
          | Some 'n' -> Buffer.add_char buf '\n'
          | Some 'r' -> Buffer.add_char buf '\r'
          | Some 't' -> Buffer.add_char buf '\t'
          | Some 'b' -> Buffer.add_char buf '\b'
          | Some 'f' -> Buffer.add_char buf '\012'
          | Some 'u' ->
              if !pos + 4 >= n then fail "truncated \\u";
              let code = int_of_string ("0x" ^ String.sub s (!pos + 1) 4) in
              pos := !pos + 4;
              Buffer.add_char buf (Char.chr (code land 0xFF))
          | _ -> fail "bad escape");
          advance ();
          go ())
      | Some c ->
          advance ();
          Buffer.add_char buf c;
          go ()
    in
    expect '"';
    go ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    let num_char c =
      (c >= '0' && c <= '9')
      || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while (match peek () with Some c -> num_char c | None -> false) do
      advance ()
    done;
    if !pos = start then fail "expected number";
    JNum (float_of_string (String.sub s start (!pos - start)))
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (advance (); JObj [])
        else
          let rec members acc =
            skip_ws ();
            let k = string_body () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                JObj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or }"
          in
          members []
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (advance (); JList [])
        else
          let rec items acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                JList (List.rev (v :: acc))
            | _ -> fail "expected , or ]"
          in
          items []
    | Some '"' -> JStr (string_body ())
    | Some 't' -> lit "true" (JBool true)
    | Some 'f' -> lit "false" (JBool false)
    | Some 'n' -> lit "null" JNull
    | _ -> number ()
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member k = function
  | JObj kvs -> (
      match List.assoc_opt k kvs with
      | Some v -> v
      | None -> Alcotest.failf "missing member %S" k)
  | _ -> Alcotest.failf "not an object looking up %S" k

let jnum = function
  | JNum f -> f
  | _ -> Alcotest.fail "expected a number"

let test_json_roundtrip () =
  Obs.reset ();
  let weird = "quote\" slash\\ nl\n tab\t ctl\001" in
  Obs.add (Obs.counter weird) 7;
  Obs.add (Obs.counter "t.pages") 123;
  Obs.set (Obs.gauge "t.ratio") 0.1875;
  let h = Obs.histogram "t.lat" in
  List.iter (Obs.observe h) [ 0.002; 0.004; 0.008 ];
  Obs.with_span "t.span" (fun () -> Obs.add_pages 5);
  (* both renderings must parse and agree *)
  let v = Obs.to_json () in
  let compact = parse_json (Json.to_string v) in
  let pretty = parse_json (Json.to_string_pretty v) in
  Alcotest.(check bool) "pretty/compact agree" true (compact = pretty);
  let counters = member "counters" compact in
  Alcotest.(check (float 0.0)) "escaped name round-trips" 7.0
    (jnum (member weird counters));
  Alcotest.(check (float 0.0)) "counter value" 123.0
    (jnum (member "t.pages" counters));
  Alcotest.(check (float 0.0)) "gauge value" 0.1875
    (jnum (member "t.ratio" (member "gauges" compact)));
  let hist = member "t.lat" (member "histograms" compact) in
  Alcotest.(check (float 0.0)) "hist count" 3.0 (jnum (member "count" hist));
  Alcotest.(check (float 1e-18)) "hist sum exact through %.17g" 0.014
    (jnum (member "sum" hist));
  let span = member "t.span" (member "spans" compact) in
  Alcotest.(check (float 0.0)) "span calls" 1.0 (jnum (member "calls" span));
  Alcotest.(check (float 0.0)) "span pages" 5.0 (jnum (member "pages" span))

(* ------------------------------------------------------------------ *)
(* Constant shape: two distinct (s, t) queries, same public plan, must
   produce byte-identical metric shapes.  Fresh server per query so ORAM
   reshuffle cadence starts from the same state. *)

let key = Psp_crypto.Sha256.digest_string "obs tests"
let cost = Psp_pir.Cost_model.ibm4764
let page_size = 256

let g =
  Psp_netgen.Synthetic.generate
    { Psp_netgen.Synthetic.nodes = 150;
      edges = 150 + (150 / 8);
      width = 1000.0;
      height = 1000.0;
      seed = 23 }

let shape_of_query mode db (s, t) =
  let server = Server.create ~mode ~cost ~key (DB.files db) in
  Obs.reset ();
  let r = Client.query_nodes server g s t in
  ignore r.Client.path;
  Obs.shape ()

let test_constant_shape () =
  let queries = Psp_netgen.Synthetic.random_queries g ~count:2 ~seed:7 in
  let q1 = queries.(0) and q2 = queries.(1) in
  Alcotest.(check bool) "distinct queries" true (q1 <> q2);
  (* the executed pyramid store too: its planning walk decides where
     each page comes from (cache, chunk member or level), and no counter
     may follow that decision *)
  List.iter
    (fun (name, db) ->
      List.iter
        (fun (mode_name, mode) ->
          let name = name ^ " " ^ mode_name in
          let s1 = shape_of_query mode db q1 and s2 = shape_of_query mode db q2 in
          Alcotest.(check bool)
            (name ^ ": shape is non-trivial")
            true
            (String.length s1 > 0);
          Alcotest.(check string) (name ^ ": shapes byte-identical") s1 s2)
        [ ("simulated", `Simulated); ("pyramid", `Pyramid) ])
    [ ("CI", DB.build_ci ~page_size g);
      ("PI", DB.build_pi ~page_size g);
      ("HY", DB.build_hy ~threshold:5 ~page_size g) ]

let () =
  Alcotest.run "obs"
    [ ( "histogram",
        [ Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
          Alcotest.test_case "stats & quantiles" `Quick test_histogram_stats ] );
      ( "counter",
        [ Alcotest.test_case "saturation" `Quick test_counter_overflow ] );
      ( "span",
        [ Alcotest.test_case "nesting & attribution" `Quick test_span_nesting;
          Alcotest.test_case "misnesting" `Quick test_span_misnesting ] );
      ( "export",
        [ Alcotest.test_case "json round-trip" `Quick test_json_roundtrip ] );
      ( "constant-shape",
        [ Alcotest.test_case "same plan, same shape" `Quick test_constant_shape ] )
    ]
