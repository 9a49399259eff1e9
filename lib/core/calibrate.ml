module DB = Psp_index.Database
module H = Psp_index.Header
module QP = Psp_index.Query_plan

(* Reset the plan to the whole-file budget the database was built with,
   run the ordinary client over the workload on a scratch simulated
   server, and record the largest number of regions consumed.  Padding
   only adds dummy slots after a search ends, so the count is the
   search's own; the reset keeps a plan calibrated earlier from capping
   it. *)
let max_regions_needed db ~plan ~queries =
  let db = DB.with_plan db plan in
  let server =
    Psp_pir.Server.create ~mode:`Simulated ~cost:Psp_pir.Cost_model.ibm4764
      ~key:(Bytes.make 32 'k') (DB.files db)
  in
  Array.fold_left
    (fun acc (s, t) ->
      let r = Client.query_nodes server db.DB.graph s t in
      max acc r.Client.regions_fetched)
    2 queries

let lm db ~queries =
  match db.DB.header.H.plan with
  | QP.Lm _ ->
      let plan = QP.Lm { total_data_pages = Psp_storage.Page_file.page_count db.DB.data } in
      let regions = max_regions_needed db ~plan ~queries in
      DB.with_plan db (QP.Lm { total_data_pages = regions })
  | _ -> invalid_arg "Calibrate.lm: not an LM database"

let af db ~queries =
  match db.DB.header.H.plan with
  | QP.Af { pages_per_region; _ } ->
      let plan = QP.Af { pages_per_region; max_regions = db.DB.header.H.region_count } in
      let regions = max_regions_needed db ~plan ~queries in
      DB.with_plan db (QP.Af { pages_per_region; max_regions = regions })
  | _ -> invalid_arg "Calibrate.af: not an AF database"
