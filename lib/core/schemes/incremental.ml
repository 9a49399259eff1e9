module H = Psp_index.Header
module E = Psp_index.Encoding
module Sc = Scheme_common

(* LM and AF (§4): incremental region fetching.  The search is a
   best-first walk that pulls a region the first time it pops a node
   living there — suspended inside [next_page], so the engine's
   plan-fixed slots (one region's worth of data pages per round) drive
   it forward without the scheme ever issuing a fetch itself.  The walk
   itself runs in the store ([Store.walk_next]); this module feeds the
   regions it names into the plan's slots. *)

(* heuristic_scale times each region's distance to (x, y): an
   admissible bound on the rest of a path from any node of the region.
   The regions are the leaf rectangles of the header's KD-tree; the root
   box is unbounded, so sides may be infinite. *)
let region_bounds (header : H.t) ~x ~y =
  let bounds = Array.make header.H.region_count 0.0 in
  let rec walk tree (x0, y0, x1, y1) =
    match tree with
    | Psp_partition.Kdtree.Leaf { region } ->
        let dx = Float.max 0.0 (Float.max (x0 -. x) (x -. x1)) in
        let dy = Float.max 0.0 (Float.max (y0 -. y) (y -. y1)) in
        bounds.(region) <- header.H.heuristic_scale *. sqrt ((dx *. dx) +. (dy *. dy))
    | Psp_partition.Kdtree.Split { axis; coord; less; geq } -> (
        match axis with
        | Psp_partition.Kdtree.X ->
            walk less (x0, y0, coord, y1);
            walk geq (coord, y0, x1, y1)
        | Psp_partition.Kdtree.Y ->
            walk less (x0, y0, x1, coord);
            walk geq (x0, coord, x1, y1))
  in
  walk header.H.tree (neg_infinity, neg_infinity, infinity, infinity);
  bounds

type state = {
  ctx : Engine.ctx;
  q : Engine.query;
  store : Store.t;
  rq : Sc.region_queue;
  fetched : Psp_util.Bitset.t;  (* over the public region count *)
  mutable consumed : int;  (* region units, dummy slots included *)
  mutable setup_done : bool;
  mutable search_done : bool;
}

let init ctx (q [@secret]) =
  (let header = ctx.Engine.header in
   let store = Store.acquire () in
   let rq = Sc.region_queue header store ~pages_per_region:header.H.pages_per_region in
   let fetched = Psp_util.Bitset.create header.H.region_count in
   (* round 2: the source and destination regions (a shared region's
      second window degrades to dummy slots but still counts) *)
   Sc.rq_push rq q.Engine.rs;
   if q.Engine.rt <> q.Engine.rs then Sc.rq_push rq q.Engine.rt;
   Psp_util.Bitset.set fetched q.Engine.rs;
   Psp_util.Bitset.set fetched q.Engine.rt;
   { ctx; q; store; rq; fetched; consumed = 2; setup_done = false; search_done = false })
  [@leak_ok
    "balanced setup: both arms consume exactly one region window in round 2, and \
     the consumed counter charges the dummy window against the plan's budget"]
  [@@oblivious]

(* Advance the walk until it needs a region's first page (returned) or
   ends.  A region it asks for twice was filed without the node that
   led there: the data file is malformed, and the walk fails closed
   instead of asking forever. *)
let advance (st [@secret]) =
  (match Store.walk_next st.store with
  | None ->
      st.search_done <- true;
      None
  | Some region ->
      if
        region >= Psp_util.Bitset.capacity st.fetched
        || Psp_util.Bitset.mem st.fetched region
      then failwith "Client: malformed database (a node is missing from its region)";
      Psp_util.Bitset.set st.fetched region;
      st.consumed <- st.consumed + 1;
      Sc.rq_push st.rq region;
      Sc.rq_next st.rq)
  [@leak_ok
    "client-local search, run only inside a slot the engine issues anyway: it \
     picks which page fills that plan-fixed slot, and a search that outgrows the \
     plan fails closed instead of fetching more"]
  [@@oblivious]

let next_page (st [@secret]) ~file =
  (ignore file;
   match Sc.rq_next st.rq with
   | Some page -> Some page
   | None -> if (not st.setup_done) || st.search_done then None else advance st)
  [@leak_ok
    "slot bookkeeping: an idle queue before setup or after termination yields a \
     dummy retrieval; every slot is plan-fixed"]
  [@@oblivious]

let deliver (st [@secret]) ~file blob =
  ignore file;
  Sc.rq_deliver st.rq blob
  [@@oblivious]

(* ALT towards the destination when the database carries landmark
   vectors (LM), arc-flags towards its region when it carries flags
   (AF).  With ALT, a node in a region not fetched yet is bounded by
   its region's bound; without it, distant regions look free and get
   fetched eagerly. *)
let barrier (st [@secret]) ~label =
  (match label with
  | "setup" ->
      let header = st.ctx.Engine.header and q = st.q in
      let source = Store.snap st.store q.Engine.rs ~x:q.Engine.sx ~y:q.Engine.sy in
      let target = Store.snap st.store q.Engine.rt ~x:q.Engine.tx ~y:q.Engine.ty in
      let region_bound =
        if header.H.config.E.landmark_anchors = 0 then [||]
        else region_bounds header ~x:(Store.x st.store target) ~y:(Store.y st.store target)
      in
      Store.walk_start st.store ~source ~target ~flag:q.Engine.rt ~region_bound;
      st.setup_done <- true
  | _ -> ())
  [@leak_ok
    "client-local search initialisation over already-fetched regions; no fetch is \
     issued here"]
  [@@oblivious]

(* Finished iff one more slot would stay idle.  The last region may land in
   the plan's final slot, leaving the search a client-local step from its
   end: asking takes that step and fetches nothing. *)
let exhausted (st [@secret]) =
  st.setup_done && Option.is_none (next_page st ~file:"data")
  [@@oblivious]

let answer (st [@secret]) =
  let path = Store.walk_path st.store in
  (* the path is built: the store goes back to this domain's free list *)
  Store.release st.store;
  (* report the region budget consumed rather than the distinct-region
     count: the rs = rt dummy window counts against the plan, and
     calibration must budget for it *)
  (path, st.consumed)
  [@@oblivious]
