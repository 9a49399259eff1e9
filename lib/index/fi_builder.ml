module W = Psp_util.Byte_io.Writer
module R = Psp_util.Byte_io.Reader

type kind = Region_set | Subgraph

type placement = { page : int; offset : int; span : int }

(* A candidate reference: an earlier record's placement, resolved fetch
   set and chain depth (bounded so decoding recursion stays shallow). *)
type recent = {
  r_kind : kind;
  r_placement : placement;
  r_fetched : int array; (* sorted *)
  r_depth : int;
}

type t = {
  graph : Psp_graph.Graph.t;
  page_size : int;
  compress : bool;
  quantize : float;
  m_bound : int option;
  pages : bytes Psp_util.Dyn_array.t; (* closed page payloads *)
  mutable current : Buffer.t;
  mutable recents : recent list; (* newest first, bounded *)
  (* (page, offset) -> the fetched set of a region-set record; [None]
     marks a subgraph record, whose edge ids are not kept *)
  fetch_sets : (int * int, int array option) Hashtbl.t;
  mutable span_set : int;
  mutable span_sub : int;
  mutable sealed : bool;
}

let max_recents = 16
let max_chain_depth = 200

let create ~graph ~page_size ~compress ~quantize ~m_bound =
  if page_size <= 0 then invalid_arg "Fi_builder.create: page_size must be positive";
  { graph;
    page_size;
    compress;
    quantize;
    m_bound;
    pages = Psp_util.Dyn_array.create ();
    current = Buffer.create page_size;
    recents = [];
    fetch_sets = Hashtbl.create 64;
    span_set = 0;
    span_sub = 0;
    sealed = false }

module S = Psp_util.Sorted_ints

let no_ref = 0xFFFFFFFF

let encode_elements t ~kind w elements =
  match kind with
  | Region_set -> Encoding.encode_region_ids w elements
  | Subgraph ->
      Encoding.encode_edge_triples ~quantize:t.quantize w
        (Array.map (Encoding.triple_of_edge t.graph) elements)

(* Encode a record.  [ref_] is (base-relative pointer, ref fetched set)
   or None.  Returns (bytes, fetched set the client reconstructs). *)
let encode_record t ~kind ?ref_ elements =
  let w = W.create ~capacity:128 () in
  W.u8 w (match kind with Region_set -> 0 | Subgraph -> 1);
  match ref_ with
  | None ->
      W.u32 w no_ref;
      W.varint w (Array.length elements);
      encode_elements t ~kind w elements;
      if kind = Region_set then W.varint w 0;
      (W.contents w, elements)
  | Some (pointer, ref_fetched) ->
      let incl = S.diff elements ref_fetched in
      let fetched = S.union ref_fetched incl in
      let excl =
        match (kind, t.m_bound) with
        | Subgraph, _ | Region_set, None -> [||]
        | Region_set, Some m ->
            let over = Array.length fetched - m in
            if over <= 0 then [||]
            else begin
              let removable = S.diff ref_fetched elements in
              Array.sub removable 0 (min over (Array.length removable))
            end
      in
      let fetched = if Array.length excl = 0 then fetched else S.diff fetched excl in
      W.u32 w pointer;
      W.varint w (Array.length incl);
      encode_elements t ~kind w incl;
      if kind = Region_set then begin
        W.varint w (Array.length excl);
        Encoding.encode_region_ids w excl
      end;
      (W.contents w, fetched)

let closed_pages t = Psp_util.Dyn_array.length t.pages
let position t = (closed_pages t * t.page_size) + Buffer.length t.current

let close_current t =
  Psp_util.Dyn_array.push t.pages (Buffer.to_bytes t.current);
  t.current <- Buffer.create t.page_size

(* Append raw bytes at the current position, closing pages as they
   fill. *)
let append_bytes t blob =
  let len = Bytes.length blob in
  let pos = ref 0 in
  while !pos < len do
    let take = min (t.page_size - Buffer.length t.current) (len - !pos) in
    Buffer.add_bytes t.current (Bytes.sub blob !pos take);
    pos := !pos + take;
    if Buffer.length t.current = t.page_size then close_current t
  done

let ceil_div a b = (a + b - 1) / b

let bump_span t kind span =
  match kind with
  | Region_set -> t.span_set <- max t.span_set span
  | Subgraph -> t.span_sub <- max t.span_sub span

let remember t ~kind ~placement ~fetched ~depth =
  let r = { r_kind = kind; r_placement = placement; r_fetched = fetched; r_depth = depth } in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  t.recents <- r :: take (max_recents - 1) t.recents

(* Place a plain record per §5.3: no straddling below one page; start a
   fresh page exactly when that lowers a big record's span. *)
let place_plain t blob fetched =
  let len = Bytes.length blob in
  let free = t.page_size - Buffer.length t.current in
  if len <= t.page_size then begin
    if len > free then close_current t;
    let placement =
      { page = closed_pages t; offset = Buffer.length t.current; span = 1 }
    in
    append_bytes t blob;
    (placement, fetched)
  end
  else begin
    let span_shared = ceil_div (Buffer.length t.current + len) t.page_size in
    let span_fresh = ceil_div len t.page_size in
    if span_shared > span_fresh && Buffer.length t.current > 0 then close_current t;
    let placement =
      { page = closed_pages t;
        offset = Buffer.length t.current;
        span = ceil_div (Buffer.length t.current + len) t.page_size }
    in
    append_bytes t blob;
    (placement, fetched)
  end

let add t ~kind elements =
  if t.sealed then invalid_arg "Fi_builder.add: already flushed";
  let elements = S.sort_dedup elements in
  let plain, plain_fetched = encode_record t ~kind elements in
  let plain_span = max 1 (ceil_div (Bytes.length plain) t.page_size) in
  let span_budget = plain_span + max 1 (plain_span / 2) in
  (* best admissible delta: pick the candidate with the highest element
     overlap whose window span (estimated) stays within budget, then
     encode once and re-check for real *)
  let per_element = match kind with Region_set -> 2 | Subgraph -> 9 in
  let delta =
    if not t.compress then None
    else begin
      let best = ref None in
      let good_enough = 95 * Array.length elements / 100 in
      (try
         List.iter
           (fun r ->
             if r.r_kind = kind && r.r_depth < max_chain_depth then begin
               let overlap = S.inter_count r.r_fetched elements in
               if overlap > 0 then begin
                 let base = r.r_placement.page in
                 let rec_offset = position t - (base * t.page_size) in
                 let est_len = 8 + (per_element * (Array.length elements - overlap)) in
                 let est_span = ceil_div (rec_offset + est_len) t.page_size in
                 if est_span <= span_budget then begin
                   (match !best with
                   | Some (_, best_overlap) when best_overlap >= overlap -> ()
                   | _ -> best := Some (r, overlap));
                   (* recents are newest-first: a near-total overlap up
                      front will not be beaten enough to matter *)
                   if overlap >= good_enough then raise Exit
                 end
               end
             end)
           t.recents
       with Exit -> ());
      match !best with
      | None -> None
      | Some (r, _) ->
          let base = r.r_placement.page in
          let rec_offset = position t - (base * t.page_size) in
          let pointer = r.r_placement.offset in
          let encoded, fetched =
            encode_record t ~kind ~ref_:(pointer, r.r_fetched) elements
          in
          let span = ceil_div (rec_offset + Bytes.length encoded) t.page_size in
          if span <= span_budget && Bytes.length encoded < Bytes.length plain then
            Some (base, rec_offset, encoded, fetched, r.r_depth, Bytes.length encoded)
          else None
    end
  in
  let placement, fetched, depth =
    match delta with
    | Some (base, rec_offset, encoded, fetched, ref_depth, _) ->
        let placement =
          { page = base;
            offset = rec_offset;
            span = ceil_div (rec_offset + Bytes.length encoded) t.page_size }
        in
        append_bytes t encoded;
        (placement, fetched, ref_depth + 1)
    | None ->
        let placement, fetched = place_plain t plain plain_fetched in
        (placement, fetched, 0)
  in
  Hashtbl.replace t.fetch_sets (placement.page, placement.offset)
    (match kind with Region_set -> Some fetched | Subgraph -> None);
  bump_span t kind placement.span;
  remember t ~kind ~placement ~fetched ~depth;
  placement

let fetch_set t placement =
  match Hashtbl.find_opt t.fetch_sets (placement.page, placement.offset) with
  | Some (Some f) -> Array.copy f
  | Some None -> invalid_arg "Fi_builder.fetch_set: subgraph records keep no fetch set"
  | None -> invalid_arg "Fi_builder.fetch_set: unknown placement"

let max_span t ~kind = match kind with Region_set -> t.span_set | Subgraph -> t.span_sub

let page_count t =
  Psp_util.Dyn_array.length t.pages + (if Buffer.length t.current > 0 then 1 else 0)

let flush_to t file =
  if Psp_storage.Page_file.page_size file <> t.page_size then
    invalid_arg "Fi_builder.flush_to: page size mismatch";
  t.sealed <- true;
  Psp_util.Dyn_array.iter (fun p -> ignore (Psp_storage.Page_file.append file p)) t.pages;
  if Buffer.length t.current > 0 then
    ignore (Psp_storage.Page_file.append file (Buffer.to_bytes t.current))

type decoded =
  | Regions of int array
  | Edges of Encoding.edge_triple array

(* One record of a reference chain, as parsed. *)
type link =
  | Set_link of int array * int array  (* inclusions, exclusions *)
  | Sub_link of Encoding.edge_triple array

(* Walk the chain once, outermost record first, then combine from the
   deepest record outwards.  A record references an earlier one, and
   all offsets share the window base, so a pointer must point strictly
   backwards: that bounds the walk and rejects every cycle, a record
   referencing itself included.  A builder chain has at most
   [max_chain_depth + 1] records. *)
let decode ~quantize ~pages ~base_page ~offset =
  if Array.length pages = 0 then invalid_arg "Fi_builder.decode: no pages";
  let blob = Bytes.concat Bytes.empty (Array.to_list pages) in
  let base = base_page * Bytes.length pages.(0) in
  let rec walk offset ~kind ~depth links =
    if depth > max_chain_depth then
      invalid_arg "Fi_builder.decode: reference chain too deep";
    let r = R.of_bytes ~pos:(base + offset) blob in
    let k = R.u8 r in
    (match (kind, k) with
    | Some 0, 1 -> invalid_arg "Fi_builder.decode: region record references a subgraph"
    | Some 1, 0 -> invalid_arg "Fi_builder.decode: subgraph record references a region set"
    | _ -> ());
    let pointer = R.u32 r in
    let incl_count = R.varint r in
    let link =
      match k with
      | 0 ->
          let incl = Encoding.decode_region_ids r ~count:incl_count in
          let excl_count = R.varint r in
          Set_link (incl, Encoding.decode_region_ids r ~count:excl_count)
      | 1 -> Sub_link (Encoding.decode_edge_triples ~quantize r ~count:incl_count)
      | k -> invalid_arg (Printf.sprintf "Fi_builder.decode: bad record kind %d" k)
    in
    if pointer = no_ref then link :: links
    else if pointer >= offset then
      invalid_arg "Fi_builder.decode: reference does not point backwards"
    else walk pointer ~kind:(Some k) ~depth:(depth + 1) (link :: links)
  in
  (* deepest record first *)
  match walk offset ~kind:None ~depth:0 [] with
  | Sub_link _ :: _ as links ->
      Edges
        (Array.concat
           (List.map (function Sub_link e -> e | Set_link _ -> [||]) links))
  | links ->
      Regions
        (List.fold_left
           (fun resolved -> function
             | Set_link (incl, excl) -> S.diff (S.union resolved incl) excl
             | Sub_link _ -> resolved)
           [||] links)
