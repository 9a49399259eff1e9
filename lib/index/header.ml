module W = Psp_util.Byte_io.Writer
module R = Psp_util.Byte_io.Reader

type t = {
  scheme : string;
  tree : Psp_partition.Kdtree.tree;
  region_count : int;
  region_first_page : int array;
  pages_per_region : int;
  plan : Query_plan.t;
  config : Encoding.config;
  heuristic_scale : float;
  index_pages : int;
  lookup_pages : int;
  data_pages : int;
  data_offset : int;
}

let encode t =
  let w = W.create ~capacity:1024 () in
  W.string w t.scheme;
  W.varint w t.region_count;
  Array.iter (fun p -> W.varint w p) t.region_first_page;
  W.varint w t.pages_per_region;
  let plan = Query_plan.encode t.plan in
  W.varint w (Bytes.length plan);
  W.bytes w plan;
  W.u8 w (if t.config.Encoding.with_region_ids then 1 else 0);
  W.varint w t.config.Encoding.landmark_anchors;
  W.varint w t.config.Encoding.flag_bits;
  W.float64 w t.config.Encoding.quantize;
  W.float64 w t.heuristic_scale;
  W.varint w t.index_pages;
  W.varint w t.lookup_pages;
  W.varint w t.data_pages;
  W.varint w t.data_offset;
  Psp_partition.Kdtree.write_tree w t.tree;
  W.contents w

let decode blob =
  let r = R.of_bytes blob in
  let scheme = R.string r in
  let region_count = R.varint r in
  (* each first-page entry takes at least one byte: a count the blob
     cannot hold is rejected before it sizes an allocation *)
  if region_count < 0 || region_count > R.remaining r then
    invalid_arg (Printf.sprintf "Header.decode: region count %d" region_count);
  let region_first_page = Array.init region_count (fun _ -> R.varint r) in
  let pages_per_region = R.varint r in
  let plan_len = R.varint r in
  let plan = Query_plan.decode (R.bytes r plan_len) in
  let with_region_ids = R.u8 r = 1 in
  let landmark_anchors = R.varint r in
  let flag_bits = R.varint r in
  let quantize = R.float64 r in
  let heuristic_scale = R.float64 r in
  let index_pages = R.varint r in
  let lookup_pages = R.varint r in
  let data_pages = R.varint r in
  let data_offset = R.varint r in
  let tree = Psp_partition.Kdtree.read_tree r ~region_count in
  { scheme;
    tree;
    region_count;
    region_first_page;
    pages_per_region;
    plan;
    config = { Encoding.with_region_ids; landmark_anchors; flag_bits; quantize };
    heuristic_scale;
    index_pages;
    lookup_pages;
    data_pages;
    data_offset }

let to_page_file t ~page_size =
  let file = Psp_storage.Page_file.create ~name:"header" ~page_size in
  let blob = encode t in
  let len = Bytes.length blob in
  (* first page begins with the total byte length *)
  let w = W.create () in
  W.u32 w len;
  let prefix = W.contents w in
  let first_payload = min (page_size - Bytes.length prefix) len in
  ignore
    (Psp_storage.Page_file.append file
       (Bytes.cat prefix (Bytes.sub blob 0 first_payload)));
  let pos = ref first_payload in
  while !pos < len do
    let take = min page_size (len - !pos) in
    ignore (Psp_storage.Page_file.append file (Bytes.sub blob !pos take));
    pos := !pos + take
  done;
  file

let of_pages pages =
  let blob = Bytes.concat Bytes.empty (Array.to_list pages) in
  let r = R.of_bytes blob in
  let len = R.u32 r in
  decode (Bytes.sub blob 4 len)

let locate t ~x ~y = Psp_partition.Kdtree.locate_tree t.tree ~x ~y
