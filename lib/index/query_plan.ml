module W = Psp_util.Byte_io.Writer
module R = Psp_util.Byte_io.Reader

type t =
  | Ci of { fi_span : int; m : int }
  | Pi of { fi_span : int }
  | Hy of { r : int; round4 : int }
  | Pi_star of { fi_span : int; cluster : int }
  | Lm of { total_data_pages : int }
  | Af of { pages_per_region : int; max_regions : int }

type step =
  | Next_round
  | Fetch_window of { file : string; count : int }
  | Decode_barrier of { label : string }

(* The plan is public by construction: everything below may depend only
   on the published scheme parameters, never on a query. *)

(* The step list is the plan's operational form: an execution engine that
   walks it — filling every fetch slot with a real or dummy page — produces
   a conforming trace by construction, and Privacy.expected_trace folds over
   the same list, so there is exactly one source of truth for the shape. *)
let steps t ~pages_per_region =
  let window file count = Fetch_window { file; count } in
  let barrier label = Decode_barrier { label } in
  let repeat n body = List.concat (List.init (max 0 n) (fun _ -> body)) in
  match t with
  | Ci { fi_span; m } ->
      [ Next_round;
        window "lookup" 1;
        barrier "lookup";
        Next_round;
        window "index" fi_span;
        barrier "decode";
        Next_round;
        window "data" (m + 2) ]
  | Pi { fi_span } ->
      (* round 3 carries both the index window and the two region reads *)
      [ Next_round;
        window "lookup" 1;
        barrier "lookup";
        Next_round;
        window "index" fi_span;
        barrier "decode";
        window "data" (2 * pages_per_region) ]
  | Pi_star { fi_span; cluster } ->
      [ Next_round;
        window "lookup" 1;
        barrier "lookup";
        Next_round;
        window "index" fi_span;
        barrier "decode";
        window "data" (2 * cluster) ]
  | Hy { r; round4 } ->
      [ Next_round;
        window "lookup" 1;
        barrier "lookup";
        Next_round;
        window "combined" r;
        barrier "decode";
        Next_round;
        window "combined" round4 ]
  | Lm { total_data_pages } ->
      (Next_round :: window "data" 2 :: barrier "setup"
      :: repeat (total_data_pages - 2) [ Next_round; window "data" 1 ])
  | Af { pages_per_region; max_regions } ->
      (Next_round
      :: window "data" (2 * pages_per_region)
      :: barrier "setup"
      :: repeat (max_regions - 2) [ Next_round; window "data" pages_per_region ])
  [@@oblivious]

let pir_fetches = function
  | Ci { fi_span; m } -> [ ("lookup", 1); ("index", fi_span); ("data", m + 2) ]
  | Pi { fi_span } -> [ ("lookup", 1); ("index", fi_span); ("data", 2) ]
  | Hy { r; round4 } -> [ ("lookup", 1); ("combined", r + round4) ]
  | Pi_star { fi_span; cluster } ->
      [ ("lookup", 1); ("index", fi_span); ("data", 2 * cluster) ]
  | Lm { total_data_pages } -> [ ("data", total_data_pages) ]
  | Af { pages_per_region; max_regions } -> [ ("data", pages_per_region * max_regions) ]
  [@@oblivious]

let total_pir_fetches t = List.fold_left (fun acc (_, n) -> acc + n) 0 (pir_fetches t)

(* round 1 is the header download; each Next_round step adds one.  The
   per-round window widths never change the round count, so any
   pages_per_region works here. *)
let rounds t =
  1
  + List.length
      (List.filter (function Next_round -> true | _ -> false) (steps t ~pages_per_region:1))
  [@@oblivious]

let encode t =
  let w = W.create ~capacity:16 () in
  (match t with
  | Ci { fi_span; m } ->
      W.u8 w 0;
      W.varint w fi_span;
      W.varint w m
  | Pi { fi_span } ->
      W.u8 w 1;
      W.varint w fi_span
  | Hy { r; round4 } ->
      W.u8 w 2;
      W.varint w r;
      W.varint w round4
  | Pi_star { fi_span; cluster } ->
      W.u8 w 3;
      W.varint w fi_span;
      W.varint w cluster
  | Lm { total_data_pages } ->
      W.u8 w 4;
      W.varint w total_data_pages
  | Af { pages_per_region; max_regions } ->
      W.u8 w 5;
      W.varint w pages_per_region;
      W.varint w max_regions);
  W.contents w
  [@@oblivious]

let decode blob =
  let r = R.of_bytes blob in
  match R.u8 r with
  | 0 ->
      let fi_span = R.varint r in
      Ci { fi_span; m = R.varint r }
  | 1 -> Pi { fi_span = R.varint r }
  | 2 ->
      let rr = R.varint r in
      Hy { r = rr; round4 = R.varint r }
  | 3 ->
      let fi_span = R.varint r in
      Pi_star { fi_span; cluster = R.varint r }
  | 4 -> Lm { total_data_pages = R.varint r }
  | 5 ->
      let pages_per_region = R.varint r in
      Af { pages_per_region; max_regions = R.varint r }
  | tag -> invalid_arg (Printf.sprintf "Query_plan.decode: bad tag %d" tag)

let pp ppf = function
  | Ci { fi_span; m } -> Format.fprintf ppf "CI(fi_span=%d, m=%d)" fi_span m
  | Pi { fi_span } -> Format.fprintf ppf "PI(fi_span=%d)" fi_span
  | Hy { r; round4 } -> Format.fprintf ppf "HY(r=%d, round4=%d)" r round4
  | Pi_star { fi_span; cluster } ->
      Format.fprintf ppf "PI*(fi_span=%d, cluster=%d)" fi_span cluster
  | Lm { total_data_pages } -> Format.fprintf ppf "LM(pages=%d)" total_data_pages
  | Af { pages_per_region; max_regions } ->
      Format.fprintf ppf "AF(pages/region=%d, regions=%d)" pages_per_region max_regions
