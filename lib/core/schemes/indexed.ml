module H = Psp_index.Header
module QP = Psp_index.Query_plan
module E = Psp_index.Encoding
module FB = Psp_index.Fi_builder
module Sc = Scheme_common

(* CI (§5.4), PI, PI* and HY (§6): one client protocol.  Round 2 reads
   the (rs, rt) look-up entry; the next round reads a window of FI pages
   around the record it names; the decoded record — a region set or a
   subgraph — decides which regions the region queue fetches, padded by
   the engine to the plan's public budget.  The four plans differ only
   in the parameters below, read once from the header's plan. *)

type params = {
  window_file : string;  (* "index", or "combined" for HY *)
  span : int;  (* window pages: fi_span, or r for HY *)
  budget : int;  (* region-set fetch budget: m + 2, 2, or round4 for HY *)
  region_sets : bool;  (* region-set records allowed (CI, HY) *)
  subgraphs : bool;  (* subgraph records allowed (PI, PI*, HY) *)
  long_records : bool;
      (* HY only: a subgraph record may run past the window; its tail
         pages lead round 4, counted against round4 *)
}

let params = function
  | QP.Ci { fi_span; m } ->
      { window_file = "index";
        span = fi_span;
        budget = m + 2;
        region_sets = true;
        subgraphs = false;
        long_records = false }
  | QP.Pi { fi_span } | QP.Pi_star { fi_span; _ } ->
      { window_file = "index";
        span = fi_span;
        budget = 2;
        region_sets = false;
        subgraphs = true;
        long_records = false }
  | QP.Hy { r; round4 } ->
      { window_file = "combined";
        span = r;
        budget = round4;
        region_sets = true;
        subgraphs = true;
        long_records = true }
  | QP.Lm _ | QP.Af _ -> invalid_arg "Indexed: plan has no look-up phase"

type state = {
  ctx : Engine.ctx;
  q : Engine.query;
  p : params;
  store : Store.t;
  rq : Sc.region_queue;
  mutable lookup_sent : bool;
  mutable lookup_blob : bytes option;
  mutable entry_page : int;
  mutable entry_offset : int;
  mutable win_start : int;
  mutable tail : int;  (* pages of a long record past the span *)
  mutable win_sent : int;
  mutable win_got : int;
  mutable win_pages : bytes array;  (* span + tail slots *)
  mutable triples : E.edge_triple array;
  mutable regions : int;  (* consumed region budget; 0 until the record decodes *)
}

let init ctx (q [@secret]) =
  let header = ctx.Engine.header in
  let p = params header.H.plan in
  let store = Store.acquire () in
  { ctx;
    q;
    p;
    store;
    rq = Sc.region_queue header store ~pages_per_region:header.H.pages_per_region;
    lookup_sent = false;
    lookup_blob = None;
    entry_page = 0;
    entry_offset = 0;
    win_start = 0;
    tail = 0;
    win_sent = 0;
    win_got = 0;
    win_pages = Array.make p.span Bytes.empty;
    triples = [||];
    regions = 0 }
  [@@oblivious]

(* Look-up file page and in-page byte position of the (rs, rt) entry. *)
let lookup_slot (st [@secret]) =
  let per_page = st.ctx.Engine.psize / E.lookup_entry_bytes in
  let idx = (st.q.Engine.rs * st.ctx.Engine.header.H.region_count) + st.q.Engine.rt in
  (idx / per_page, idx mod per_page * E.lookup_entry_bytes)
  [@@oblivious]

(* The window runs [span + tail] pages from [win_start]: a long record's
   tail is simply the window's continuation into round 4, and region
   pages follow once the window is spent. *)
let next_page (st [@secret]) ~file =
  (if file = "lookup" then
     if st.lookup_sent then None
     else begin
       st.lookup_sent <- true;
       Some (fst (lookup_slot st))
     end
   else if String.equal file st.p.window_file && st.win_sent < st.p.span + st.tail
   then begin
     let p = st.win_start + st.win_sent in
     st.win_sent <- st.win_sent + 1;
     Some p
   end
   else Sc.rq_next st.rq)
  [@leak_ok
    "phase bookkeeping picks which page index fills a plan-fixed fetch slot; the \
     engine issues the same slot sequence regardless of these branches, and a long \
     record's tail and every region page count against the padded plan budget"]
  [@@oblivious]

(* The record's region set, or its subgraph plus the endpoint pair,
   becomes the region queue; a kind the plan forbids and an over-budget
   fetch set fail closed. *)
let decode_record (st [@secret]) =
  (let q = st.q and p = st.p in
   match
     FB.decode ~quantize:st.ctx.Engine.header.H.config.E.quantize
       ~pages:st.win_pages
       ~base_page:(st.entry_page - st.win_start) ~offset:st.entry_offset
   with
   | FB.Regions r when p.region_sets && st.tail = 0 ->
       let to_fetch =
         List.sort_uniq Int.compare (q.Engine.rs :: q.Engine.rt :: Array.to_list r)
       in
       let n = List.length to_fetch in
       if n > p.budget then failwith "Client: fetch set exceeds the query plan budget";
       st.regions <- n;
       List.iter (Sc.rq_push st.rq) to_fetch
   | FB.Edges e when p.subgraphs ->
       st.triples <- e;
       st.regions <- 2;
       Sc.rq_push st.rq q.Engine.rs;
       if q.Engine.rt <> q.Engine.rs then Sc.rq_push st.rq q.Engine.rt
   | FB.Regions _ | FB.Edges _ ->
       failwith "Client: look-up led to a record kind the plan forbids")
  [@leak_ok
    "client-local decode of already-fetched pages; forbidden record kinds and \
     budget violations fail closed with constant messages, and when source and \
     target share a region the second region window degrades to dummy retrievals, \
     so both arms consume the same plan-fixed slots"]
  [@@oblivious]

let deliver (st [@secret]) ~file blob =
  (if file = "lookup" then st.lookup_blob <- Some blob
   else if String.equal file st.p.window_file && st.win_got < st.p.span + st.tail
   then begin
     st.win_pages.(st.win_got) <- blob;
     st.win_got <- st.win_got + 1;
     (* a long record decodes when its last tail page lands — not under
        a barrier span, whose position would then depend on the record *)
     if st.tail > 0 && st.win_got = st.p.span + st.tail then decode_record st
   end
   else Sc.rq_deliver st.rq blob)
  [@leak_ok "delivery is client-local; the fetch already happened"]
  [@@oblivious]

let barrier (st [@secret]) ~label =
  (match label with
  | "lookup" ->
      let blob =
        match st.lookup_blob with
        | Some b -> b
        | None -> failwith "Client: lookup page missing at barrier"
      in
      let page, offset, span = E.decode_lookup_entry blob ~pos:(snd (lookup_slot st)) in
      st.entry_page <- page;
      st.entry_offset <- offset;
      if st.p.long_records && span > st.p.span then begin
        st.win_start <- page;
        st.tail <- span - st.p.span;
        st.win_pages <- Array.make span Bytes.empty
      end
      else
        (* the record (and its reference chain) fits in the window,
           clamped to the FI pages *)
        st.win_start <-
          max 0 (min page (st.ctx.Engine.header.H.index_pages - st.p.span))
  | "decode" -> if st.tail = 0 then decode_record st
  | _ -> ())
  [@leak_ok
    "client-local decode of already-fetched pages; short and long records fetch \
     the same plan-fixed window slots, and the split only moves where the decode \
     runs, never a fetch"]
  [@@oblivious]

let exhausted (st [@secret]) =
  st.lookup_sent && st.win_sent >= st.p.span + st.tail && st.regions > 0
  && Sc.rq_idle st.rq
  [@@oblivious]

let answer (st [@secret]) =
  (Array.iter (Store.add_triple st.store) st.triples
  [@leak_ok
    "client-local decode of already-retrieved pages; the server cannot observe \
     this trip count"]);
  let s = Store.snap st.store st.q.Engine.rs ~x:st.q.Engine.sx ~y:st.q.Engine.sy
  and t = Store.snap st.store st.q.Engine.rt ~x:st.q.Engine.tx ~y:st.q.Engine.ty in
  let path = Store.dijkstra st.store ~source:s ~target:t in
  (* the path is built: the store goes back to this domain's free list *)
  Store.release st.store;
  (path, st.regions)
  [@@oblivious]
