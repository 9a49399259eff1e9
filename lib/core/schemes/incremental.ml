module H = Psp_index.Header
module E = Psp_index.Encoding
module Sc = Scheme_common
module Heap = Psp_util.Min_heap

(* LM and AF (§4): incremental region fetching.  The search is a
   best-first walk that pulls a region the first time it pops a node
   living there — suspended inside [next_page], so the engine's
   plan-fixed slots (one region's worth of data pages per round) drive
   it forward without the scheme ever issuing a fetch itself. *)

(* The ALT lower bound from v's landmark vectors to t's. *)
let alt_heuristic ~to_v ~from_v ~to_t ~from_t =
  let bound = ref 0.0 in
  for a = 0 to Array.length to_v - 1 do
    bound := Float.max !bound (to_v.(a) -. to_t.(a));
    bound := Float.max !bound (from_t.(a) -. from_v.(a))
  done;
  Float.max !bound 0.0

(* Leaf bounding rectangles of the header's KD-tree; the root box is
   unbounded, so sides may be infinite. *)
let region_rects (header : H.t) =
  let rects =
    Array.make header.H.region_count (neg_infinity, neg_infinity, infinity, infinity)
  in
  let rec walk tree ((x0, y0, x1, y1) as box) =
    match tree with
    | Psp_partition.Kdtree.Leaf { region } -> rects.(region) <- box
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
  rects

(* Euclidean distance from a point to a rectangle (0 inside). *)
let rect_distance (x0, y0, x1, y1) ~x ~y =
  let dx = Float.max 0.0 (Float.max (x0 -. x) (x -. x1)) in
  let dy = Float.max 0.0 (Float.max (y0 -. y) (y -. y1)) in
  sqrt ((dx *. dx) +. (dy *. dy))

module Make (C : sig
  val use_alt : bool
  val use_flags : bool
end) : Engine.SCHEME = struct
  type state = {
    ctx : Engine.ctx;
    q : Engine.query;
    store : Store.t;
    rq : Sc.region_queue;
    fetched : (int, unit) Hashtbl.t;
    dist : (int, float) Hashtbl.t;
    parent : (int, int) Hashtbl.t;
    closed : (int, unit) Hashtbl.t;
    region_of_frontier : (int, int) Hashtbl.t;
    heap : Heap.t;
    mutable consumed : int;  (* region units, dummy slots included *)
    mutable rects : (float * float * float * float) array option;
    mutable s_id : int;
    mutable t_id : int;
    (* the destination's record, read once at setup, and scratch for the
       landmark vectors of the node being bounded *)
    mutable t_known : bool;
    mutable t_x : float;
    mutable t_y : float;
    t_to : float array;
    t_from : float array;
    v_to : float array;
    v_from : float array;
    mutable pending_node : int option;  (* re-queued when its region lands *)
    mutable setup_done : bool;
    mutable search_done : bool;
    mutable found : bool;
  }

  let init ctx (q [@secret]) =
    (let store = Store.acquire () in
     let anchors = ctx.Engine.header.H.config.E.landmark_anchors in
     let rq =
       Sc.region_queue ctx.Engine.header store
         ~pages_per_region:ctx.Engine.header.H.pages_per_region
     in
     let fetched = Hashtbl.create 16 in
     (* round 2: the source and destination regions (a shared region's
        second window degrades to dummy slots but still counts) *)
     Sc.rq_push rq q.Engine.rs;
     Hashtbl.replace fetched q.Engine.rs ();
     if q.Engine.rt <> q.Engine.rs then begin
       Sc.rq_push rq q.Engine.rt;
       Hashtbl.replace fetched q.Engine.rt ()
     end;
     { ctx;
       q;
       store;
       rq;
       fetched;
       dist = Hashtbl.create 1024;
       parent = Hashtbl.create 1024;
       closed = Hashtbl.create 1024;
       region_of_frontier = Hashtbl.create 64;
       heap = Heap.create ();
       consumed = 2;
       rects = None;
       s_id = -1;
       t_id = -1;
       t_known = false;
       t_x = 0.0;
       t_y = 0.0;
       t_to = Array.make anchors 0.0;
       t_from = Array.make anchors 0.0;
       v_to = Array.make anchors 0.0;
       v_from = Array.make anchors 0.0;
       pending_node = None;
       setup_done = false;
       search_done = false;
       found = false })
    [@leak_ok
      "balanced setup: both arms consume exactly one region window in round 2, \
       and the consumed counter charges the dummy window against the plan's \
       budget"]
    [@@oblivious]

  (* A frontier node in a not-yet-fetched region has no ALT vector, but
     its region's rectangle (public, from the header) gives an admissible
     stand-in: heuristic_scale times the rectangle's distance to the
     destination.  Without this, distant regions look free and get
     fetched eagerly.  A fetched node gets its ALT bound. *)
  let h (st [@secret]) (v [@secret]) =
    (if not C.use_alt then 0.0
     else if not st.t_known then failwith "Client: heuristic consulted before setup"
     else if Store.has_record st.store v then begin
       Store.landmarks st.store v ~to_anchor:st.v_to ~from_anchor:st.v_from;
       alt_heuristic ~to_v:st.v_to ~from_v:st.v_from ~to_t:st.t_to ~from_t:st.t_from
     end
     else
       match (st.rects, Hashtbl.find_opt st.region_of_frontier v) with
       | Some rects, Some region ->
           st.ctx.Engine.header.H.heuristic_scale
           *. rect_distance rects.(region) ~x:st.t_x ~y:st.t_y
       | _ -> 0.0)
    [@leak_ok
      "heuristic evaluation is client-local arithmetic; it only steers which \
       page fills the next plan-fixed slot"]
    [@@oblivious]

  let relax (st [@secret]) u =
    (let du = Hashtbl.find st.dist u in
     Store.iter_out st.store u ~flag:st.q.Engine.rt
       (fun ~target ~weight ~target_region ~flagged ->
         let usable =
           if not C.use_flags then true
           else if Store.has_flags st.store then flagged
           else failwith "Client: AF database lacks arc-flags"
         in
         if usable then begin
           let nd = du +. weight in
           let better =
             match Hashtbl.find_opt st.dist target with
             | Some old -> nd < old
             | None -> true
           in
           if better then begin
             Hashtbl.replace st.dist target nd;
             Hashtbl.replace st.parent target u;
             (* the mixed (rect / ALT) heuristic is admissible but not
                consistent, so a strict improvement must reopen an
                already-closed node; with reopening, stopping at t's
                first pop stays exact *)
             Hashtbl.remove st.closed target;
             if target_region >= 0 then
               Hashtbl.replace st.region_of_frontier target target_region;
             Heap.push st.heap ~priority:(nd +. h st target) target
           end
         end))
    [@leak_ok
      "edge relaxation is client-local; it only steers which page fills the \
       next plan-fixed slot"]
    [@@oblivious]

  (* Advance the search until it needs a region's first page (returned),
     terminates, or runs dry. *)
  let rec advance (st [@secret]) =
    (if Heap.is_empty st.heap then begin
       st.search_done <- true;
       None
     end
     else begin
       let key = Heap.min_priority st.heap in
       let u = Heap.pop_min st.heap in
       if Hashtbl.mem st.closed u then advance st
       else if not (Store.has_record st.store u) then begin
         (* node lives in a region we have not fetched yet *)
         let region =
           match Hashtbl.find_opt st.region_of_frontier u with
           | Some r -> r
           | None -> failwith "Client: frontier node with unknown region"
         in
         if Hashtbl.mem st.fetched region then begin
           Heap.push st.heap ~priority:(Hashtbl.find st.dist u +. h st u) u;
           advance st
         end
         else begin
           Hashtbl.replace st.fetched region ();
           st.consumed <- st.consumed + 1;
           st.pending_node <- Some u;
           Sc.rq_push st.rq region;
           match Sc.rq_next st.rq with
           | Some page -> Some page
           | None -> failwith "Client: region queue yielded no page"
         end
       end
       else if key +. 1e-12 < Hashtbl.find st.dist u +. h st u then begin
         (* the node was queued before its region (and heuristic) was
            known: its key understates g + h, and closing it now could
            be premature — re-queue at the proper key *)
         Heap.push st.heap ~priority:(Hashtbl.find st.dist u +. h st u) u;
         advance st
       end
       else begin
         Hashtbl.replace st.closed u ();
         if u = st.t_id then begin
           st.found <- true;
           st.search_done <- true;
           None
         end
         else begin
           relax st u;
           advance st
         end
       end
     end)
    [@leak_ok
      "client-local search, run only inside a slot the engine issues anyway: it \
       picks which page fills that plan-fixed slot, and a search that outgrows \
       the plan fails closed instead of fetching more"]
    [@@oblivious]

  let next_page (st [@secret]) ~file =
    (ignore file;
     match Sc.rq_next st.rq with
     | Some page -> Some page
     | None ->
         if (not st.setup_done) || st.search_done then None else advance st)
    [@leak_ok
      "slot bookkeeping: an idle queue before setup or after termination yields \
       a dummy retrieval; every slot is plan-fixed"]
    [@@oblivious]

  let deliver (st [@secret]) ~file blob =
    (ignore file;
     Sc.rq_deliver st.rq blob;
     match st.pending_node with
     | Some u when Sc.rq_idle st.rq ->
         (* the region the search was waiting on is fully landed *)
         st.pending_node <- None;
         Heap.push st.heap ~priority:(Hashtbl.find st.dist u +. h st u) u
     | _ -> ())
    [@leak_ok "delivery is client-local; the fetch already happened"]
    [@@oblivious]

  let barrier (st [@secret]) ~label =
    (match label with
    | "setup" ->
        st.s_id <-
          Store.snap st.store st.q.Engine.rs ~x:st.q.Engine.sx ~y:st.q.Engine.sy;
        st.t_id <-
          Store.snap st.store st.q.Engine.rt ~x:st.q.Engine.tx ~y:st.q.Engine.ty;
        st.t_x <- Store.x st.store st.t_id;
        st.t_y <- Store.y st.store st.t_id;
        Store.landmarks st.store st.t_id ~to_anchor:st.t_to ~from_anchor:st.t_from;
        st.t_known <- true;
        if C.use_alt then st.rects <- Some (region_rects st.ctx.Engine.header);
        Hashtbl.replace st.dist st.s_id 0.0;
        Heap.push st.heap ~priority:(h st st.s_id) st.s_id;
        st.setup_done <- true
    | _ -> ())
    [@leak_ok
      "client-local search initialisation over already-fetched regions; no fetch \
       is issued here"]
    [@@oblivious]

  (* Finished iff one more slot would stay idle.  The last region may land in
     the plan's final slot, leaving the search a client-local step from its
     end: asking takes that step and fetches nothing. *)
  let exhausted (st [@secret]) =
    (st.setup_done && Option.is_none (next_page st ~file:"data"))
    [@leak_ok
      "asked once, after the walk's last server-visible operation; the search step \
       it may take is client-local"]
    [@@oblivious]

  let answer (st [@secret]) =
    (let path =
       if not st.found then None
       else begin
         let rec build v acc =
           match Hashtbl.find_opt st.parent v with
           | None -> v :: acc
           | Some p -> build p (v :: acc)
         in
         Some (build st.t_id [], Hashtbl.find st.dist st.t_id)
       end
     in
     (* the path is built: the store goes back to this domain's free list *)
     Store.release st.store;
     (* report the region budget consumed rather than the distinct-region
        count: the rs = rt dummy window counts against the plan, and
        calibration must budget for it *)
     (path, st.consumed))
    [@leak_ok "path reconstruction is client-local; no fetch is issued after it"]
    [@@oblivious]
end
