module G = Psp_graph.Graph
module K = Psp_partition.Kdtree
module PF = Psp_storage.Page_file

type stats = {
  m : int;
  fi_span_sets : int;
  fi_span_subgraphs : int;
  replaced_pairs : int;
  borders_total : int;
  precompute_pairs : int;
}

type t = {
  scheme : string;
  graph : G.t;
  partition : K.t;
  header : Header.t;
  header_file : PF.t;
  lookup : PF.t option;
  index : PF.t option;
  data : PF.t;
  stats : stats;
}

let files t =
  (t.header_file :: Option.to_list t.lookup)
  @ Option.to_list t.index
  @ [ t.data ]

let total_bytes t = List.fold_left (fun acc f -> acc + PF.size_bytes f) 0 (files t)

let with_plan t plan =
  let header = { t.header with Header.plan } in
  let header_file = Header.to_page_file header ~page_size:(PF.page_size t.data) in
  { t with header; header_file }

type prepared = {
  p_partition : K.t;
  p_border : Psp_partition.Border.t;
  p_pre : Precompute.t;
  p_page_size : int;
}

let prepare ~page_size g =
  let node_bytes = Encoding.node_bytes Encoding.plain_config g in
  let partition = K.build_packed g ~node_bytes ~capacity:(page_size - 4) in
  let border =
    Psp_partition.Border.compute g ~assignment:partition.K.assignment
      ~region_count:partition.K.region_count
  in
  let pre =
    Precompute.compute g ~assignment:partition.K.assignment ~border ~want_sets:true
      ~want_subgraphs:true
  in
  { p_partition = partition; p_border = border; p_pre = pre; p_page_size = page_size }

let prepared_histogram p = Precompute.set_cardinality_histogram p.p_pre
let prepared_max_cardinality p = Precompute.max_set_cardinality p.p_pre

let no_stats =
  { m = 0;
    fi_span_sets = 0;
    fi_span_subgraphs = 0;
    replaced_pairs = 0;
    borders_total = 0;
    precompute_pairs = 0 }

(* Region blobs laid out at a fixed stride of [pages_per_region] pages;
   a region's payload may straddle its own pages (the client always
   fetches all of them together). *)
let write_regions file ~pages_per_region blobs =
  let psize = PF.page_size file in
  Array.iter
    (fun blob ->
      let len = Bytes.length blob in
      if len > pages_per_region * psize then
        invalid_arg "Database.write_regions: region payload exceeds its page budget";
      for p = 0 to pages_per_region - 1 do
        let start = p * psize in
        if start >= len then ignore (PF.append_blank file)
        else
          ignore (PF.append file (Bytes.sub blob start (min psize (len - start))))
      done)
    blobs

(* Dense look-up file: entry (i, j) at logical slot i*R + j, fixed
   10-byte entries ([Encoding.lookup_entry_bytes]), packed pages. *)
let build_lookup ~page_size ~region_count placements =
  let file = PF.create ~name:"lookup" ~page_size in
  let per_page = page_size / Encoding.lookup_entry_bytes in
  let buf = Buffer.create page_size in
  let flush () =
    if Buffer.length buf > 0 then begin
      ignore (PF.append file (Buffer.to_bytes buf));
      Buffer.clear buf
    end
  in
  let count = ref 0 in
  for i = 0 to region_count - 1 do
    for j = 0 to region_count - 1 do
      let p : Fi_builder.placement = placements i j in
      Buffer.add_bytes buf
        (Encoding.encode_lookup_entry ~page:p.Fi_builder.page ~offset:p.Fi_builder.offset
           ~span:p.Fi_builder.span);
      incr count;
      if !count mod per_page = 0 then flush ()
    done
  done;
  flush ();
  file

let region_blobs config g partition ?region_of ?landmark ?flags () =
  Array.init (partition : K.t).K.region_count (fun r ->
      Encoding.encode_region config g ?region_of ?landmark ?flags (K.nodes_of_region partition r))

let make_header ~scheme ~g ~partition ~pages_per_region ~plan ~config ~index_pages
    ~lookup_pages ~data_pages ~data_offset ~page_size =
  let region_count = (partition : K.t).K.region_count in
  let header =
    { Header.scheme;
      tree = partition.K.tree;
      region_count;
      region_first_page =
        Array.init region_count (fun r -> data_offset + (r * pages_per_region));
      pages_per_region;
      plan;
      config;
      heuristic_scale = G.min_weight_per_distance g;
      index_pages;
      lookup_pages;
      data_pages;
      data_offset }
  in
  (header, Header.to_page_file header ~page_size)

(* Shared pipeline for CI and PI. *)
let build_ci_pi ~scheme ~packed ~compress ~prepared ~epsilon ~page_size g =
  let config = { Encoding.plain_config with Encoding.quantize = epsilon } in
  let want_sets = scheme = "CI" in
  let partition, border, pre =
    match prepared with
    | Some p ->
        if not packed then invalid_arg "Database: prepared implies packed partitioning";
        if p.p_page_size <> page_size then
          invalid_arg "Database: prepared page size mismatch";
        (p.p_partition, p.p_border, p.p_pre)
    | None ->
        let node_bytes = Encoding.node_bytes config g in
        let capacity = page_size - 4 in
        let partition =
          if packed then K.build_packed g ~node_bytes ~capacity
          else K.build_plain g ~node_bytes ~capacity
        in
        let border =
          Psp_partition.Border.compute g ~assignment:partition.K.assignment
            ~region_count:partition.K.region_count
        in
        let pre =
          Precompute.compute g ~assignment:partition.K.assignment ~border ~want_sets
            ~want_subgraphs:(not want_sets)
        in
        (partition, border, pre)
  in
  let region_count = partition.K.region_count in
  let m = if want_sets then Precompute.max_set_cardinality pre else 0 in
  let builder =
    Fi_builder.create ~graph:g ~page_size ~compress ~quantize:epsilon
      ~m_bound:(if want_sets then Some m else None)
  in
  let placements = Hashtbl.create 256 in
  for i = 0 to region_count - 1 do
    for j = i to region_count - 1 do
      let placement =
        if want_sets then
          Fi_builder.add builder ~kind:Fi_builder.Region_set (Precompute.region_set pre i j)
        else Fi_builder.add builder ~kind:Fi_builder.Subgraph (Precompute.subgraph pre i j)
      in
      Hashtbl.replace placements (i, j) placement
    done
  done;
  let index = PF.create ~name:"index" ~page_size in
  Fi_builder.flush_to builder index;
  let lookup =
    build_lookup ~page_size ~region_count (fun i j ->
        Hashtbl.find placements (min i j, max i j))
  in
  let data = PF.create ~name:"data" ~page_size in
  write_regions data ~pages_per_region:1 (region_blobs config g partition ());
  let fi_span_sets = Fi_builder.max_span builder ~kind:Fi_builder.Region_set in
  let fi_span_subgraphs = Fi_builder.max_span builder ~kind:Fi_builder.Subgraph in
  let plan =
    if want_sets then Query_plan.Ci { fi_span = max 1 fi_span_sets; m }
    else Query_plan.Pi { fi_span = max 1 fi_span_subgraphs }
  in
  let header, header_file =
    make_header ~scheme ~g ~partition ~pages_per_region:1 ~plan ~config
      ~index_pages:(PF.page_count index) ~lookup_pages:(PF.page_count lookup)
      ~data_pages:(PF.page_count data) ~data_offset:0 ~page_size
  in
  { scheme;
    graph = g;
    partition;
    header;
    header_file;
    lookup = Some lookup;
    index = Some index;
    data;
    stats =
      { no_stats with
        m;
        fi_span_sets;
        fi_span_subgraphs;
        borders_total = Array.length (Psp_partition.Border.all_border_nodes border);
        precompute_pairs = Precompute.pair_count pre } }

let build_ci ?(packed = true) ?(compress = true) ?prepared ?(epsilon = 0.0) ~page_size g
    =
  build_ci_pi ~scheme:"CI" ~packed ~compress ~prepared ~epsilon ~page_size g

let build_pi ?(packed = true) ?(compress = true) ?prepared ?(epsilon = 0.0) ~page_size g
    =
  build_ci_pi ~scheme:"PI" ~packed ~compress ~prepared ~epsilon ~page_size g

let build_pi_star ?(compress = true) ~cluster ~page_size g =
  if cluster < 1 then invalid_arg "Database.build_pi_star: cluster must be >= 1";
  let config = Encoding.plain_config in
  let node_bytes = Encoding.node_bytes config g in
  let capacity = (cluster * page_size) - 4 in
  let partition = K.build_packed g ~node_bytes ~capacity in
  let border =
    Psp_partition.Border.compute g ~assignment:partition.K.assignment
      ~region_count:partition.K.region_count
  in
  let pre =
    Precompute.compute g ~assignment:partition.K.assignment ~border ~want_sets:false
      ~want_subgraphs:true
  in
  let region_count = partition.K.region_count in
  let builder = Fi_builder.create ~graph:g ~page_size ~compress ~quantize:0.0 ~m_bound:None in
  let placements = Hashtbl.create 256 in
  for i = 0 to region_count - 1 do
    for j = i to region_count - 1 do
      Hashtbl.replace placements (i, j)
        (Fi_builder.add builder ~kind:Fi_builder.Subgraph (Precompute.subgraph pre i j))
    done
  done;
  let index = PF.create ~name:"index" ~page_size in
  Fi_builder.flush_to builder index;
  let lookup =
    build_lookup ~page_size ~region_count (fun i j ->
        Hashtbl.find placements (min i j, max i j))
  in
  let data = PF.create ~name:"data" ~page_size in
  write_regions data ~pages_per_region:cluster (region_blobs config g partition ());
  let fi_span_subgraphs = Fi_builder.max_span builder ~kind:Fi_builder.Subgraph in
  let plan = Query_plan.Pi_star { fi_span = max 1 fi_span_subgraphs; cluster } in
  let header, header_file =
    make_header ~scheme:"PI*" ~g ~partition ~pages_per_region:cluster ~plan ~config
      ~index_pages:(PF.page_count index) ~lookup_pages:(PF.page_count lookup)
      ~data_pages:(PF.page_count data) ~data_offset:0 ~page_size
  in
  { scheme = "PI*";
    graph = g;
    partition;
    header;
    header_file;
    lookup = Some lookup;
    index = Some index;
    data;
    stats =
      { no_stats with
        fi_span_subgraphs;
        borders_total = Array.length (Psp_partition.Border.all_border_nodes border);
        precompute_pairs = Precompute.pair_count pre } }

let build_hy ?(compress = true) ?prepared ~threshold ~page_size g =
  if threshold < 0 then invalid_arg "Database.build_hy: threshold must be >= 0";
  let config = Encoding.plain_config in
  let partition, border, pre =
    match prepared with
    | Some p ->
        if p.p_page_size <> page_size then
          invalid_arg "Database: prepared page size mismatch";
        (p.p_partition, p.p_border, p.p_pre)
    | None ->
        let node_bytes = Encoding.node_bytes config g in
        let partition = K.build_packed g ~node_bytes ~capacity:(page_size - 4) in
        let border =
          Psp_partition.Border.compute g ~assignment:partition.K.assignment
            ~region_count:partition.K.region_count
        in
        let pre =
          Precompute.compute g ~assignment:partition.K.assignment ~border ~want_sets:true
            ~want_subgraphs:true
        in
        (partition, border, pre)
  in
  let region_count = partition.K.region_count in
  let m = Precompute.max_set_cardinality pre in
  let builder =
    Fi_builder.create ~graph:g ~page_size ~compress ~quantize:0.0 ~m_bound:(Some threshold)
  in
  let placements = Hashtbl.create 256 in
  let kinds = Hashtbl.create 256 in
  let replaced = ref 0 in
  for i = 0 to region_count - 1 do
    for j = i to region_count - 1 do
      let set = Precompute.region_set pre i j in
      if Array.length set > threshold then begin
        incr replaced;
        Hashtbl.replace kinds (i, j) Fi_builder.Subgraph;
        Hashtbl.replace placements (i, j)
          (Fi_builder.add builder ~kind:Fi_builder.Subgraph (Precompute.subgraph pre i j))
      end
      else begin
        Hashtbl.replace kinds (i, j) Fi_builder.Region_set;
        Hashtbl.replace placements (i, j)
          (Fi_builder.add builder ~kind:Fi_builder.Region_set set)
      end
    done
  done;
  (* combined file: index pages first, then region data *)
  let combined = PF.create ~name:"combined" ~page_size in
  Fi_builder.flush_to builder combined;
  let data_offset = PF.page_count combined in
  write_regions combined ~pages_per_region:1 (region_blobs config g partition ());
  let lookup =
    build_lookup ~page_size ~region_count (fun i j ->
        Hashtbl.find placements (min i j, max i j))
  in
  let r = max 1 (Fi_builder.max_span builder ~kind:Fi_builder.Region_set) in
  (* round-4 budget: worst over pairs of what remains after the r
     round-3 pages *)
  let round4 = ref 0 in
  for i = 0 to region_count - 1 do
    for j = i to region_count - 1 do
      let p = Hashtbl.find placements (i, j) in
      let need =
        match Hashtbl.find kinds (i, j) with
        | Fi_builder.Region_set -> Array.length (Fi_builder.fetch_set builder p) + 2
        | Fi_builder.Subgraph -> max 0 (p.Fi_builder.span - r) + 2
      in
      if need > !round4 then round4 := need
    done
  done;
  let plan = Query_plan.Hy { r; round4 = !round4 } in
  let header, header_file =
    make_header ~scheme:"HY" ~g ~partition ~pages_per_region:1 ~plan ~config
      ~index_pages:data_offset ~lookup_pages:(PF.page_count lookup)
      ~data_pages:(PF.page_count combined - data_offset) ~data_offset ~page_size
  in
  { scheme = "HY";
    graph = g;
    partition;
    header;
    header_file;
    lookup = Some lookup;
    index = None;
    data = combined;
    stats =
      { m;
        fi_span_sets = Fi_builder.max_span builder ~kind:Fi_builder.Region_set;
        fi_span_subgraphs = Fi_builder.max_span builder ~kind:Fi_builder.Subgraph;
        replaced_pairs = !replaced;
        borders_total = Array.length (Psp_partition.Border.all_border_nodes border);
        precompute_pairs = Precompute.pair_count pre } }

let build_lm ~anchors ~seed ~page_size g =
  let landmark = Psp_graph.Landmark.select_farthest g ~count:anchors ~seed in
  let config =
    { Encoding.plain_config with
      Encoding.with_region_ids = true;
      landmark_anchors = Psp_graph.Landmark.anchor_count landmark }
  in
  let node_bytes = Encoding.node_bytes config g in
  let capacity = page_size - 4 in
  let partition = K.build_packed g ~node_bytes ~capacity in
  let data = PF.create ~name:"data" ~page_size in
  write_regions data ~pages_per_region:1
    (region_blobs config g partition ~region_of:partition.K.assignment ~landmark ());
  (* the whole data file, plus the second round-2 window a query charges
     even when source and destination share a region; calibration may
     tighten it *)
  let plan = Query_plan.Lm { total_data_pages = PF.page_count data + 1 } in
  let header, header_file =
    make_header ~scheme:"LM" ~g ~partition ~pages_per_region:1 ~plan ~config ~index_pages:0
      ~lookup_pages:0 ~data_pages:(PF.page_count data) ~data_offset:0 ~page_size
  in
  ( { scheme = "LM";
      graph = g;
      partition;
      header;
      header_file;
      lookup = None;
      index = None;
      data;
      stats = no_stats },
    landmark )

let build_af ~target_regions ~page_size g =
  if target_regions < 2 then invalid_arg "Database.build_af: target_regions must be >= 2";
  let base_config = { Encoding.plain_config with Encoding.with_region_ids = true } in
  let base_bytes = Encoding.node_bytes base_config g in
  let total = ref 0 in
  for v = 0 to G.node_count g - 1 do
    total := !total + base_bytes v
  done;
  let capacity = max 64 (!total / target_regions) in
  let partition = K.build_packed g ~node_bytes:base_bytes ~capacity in
  let region_count = partition.K.region_count in
  let flags =
    Psp_graph.Arcflag.compute g ~region_of:partition.K.assignment ~region_count
  in
  let config = { base_config with Encoding.flag_bits = region_count } in
  let blobs =
    region_blobs config g partition ~region_of:partition.K.assignment
      ~flags:(Psp_graph.Arcflag.flags_of_edge flags) ()
  in
  let max_blob = Array.fold_left (fun acc b -> max acc (Bytes.length b)) 0 blobs in
  let pages_per_region = max 1 ((max_blob + page_size - 1) / page_size) in
  let data = PF.create ~name:"data" ~page_size in
  write_regions data ~pages_per_region blobs;
  (* every region plus the shared-region dummy window, as for LM *)
  let plan = Query_plan.Af { pages_per_region; max_regions = region_count + 1 } in
  let header, header_file =
    make_header ~scheme:"AF" ~g ~partition ~pages_per_region ~plan ~config ~index_pages:0
      ~lookup_pages:0 ~data_pages:(PF.page_count data) ~data_offset:0 ~page_size
  in
  ( { scheme = "AF";
      graph = g;
      partition;
      header;
      header_file;
      lookup = None;
      index = None;
      data;
      stats = no_stats },
    flags )
