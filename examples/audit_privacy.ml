(* Privacy audit: exercise Theorem 1 from the adversary's chair.

   Three checks on a live server:
   1. indistinguishability - a large batch of random queries (with
      duplicates and degenerate s = t cases mixed in) must produce
      byte-identical adversary views;
   2. plan conformance - that view must equal the one derivable from the
      public header alone, so it carries zero query information;
   3. the ORAM layer - through the real pyramid ORAM, the physical
      slots the host sees never repeat within a level's epoch and
      rebuilds happen at a fixed cadence, whatever the logical access
      pattern.

     dune exec examples/audit_privacy.exe
*)

module DB = Psp_index.Database
module PF = Psp_storage.Page_file
module PS = Psp_pir.Pyramid_store

let () =
  let city =
    Psp_netgen.Synthetic.generate
      { Psp_netgen.Synthetic.nodes = 800;
        edges = 900;
        width = 2000.0;
        height = 2000.0;
        seed = 99 }
  in
  let db = DB.build_hy ~threshold:8 ~page_size:2048 city in
  let server =
    Psp_pir.Server.create ~cost:Psp_pir.Cost_model.ibm4764
      ~key:(Psp_crypto.Sha256.digest_string "audit") (DB.files db)
  in

  (* 1: batch with duplicates and s = t *)
  let base = Psp_netgen.Synthetic.random_queries city ~count:40 ~seed:5 in
  let queries = Array.concat [ base; Array.sub base 0 10; [| (3, 3); (3, 3) |] ] in
  let traces =
    Array.to_list
      (Array.map
         (fun (s, t) ->
           (Psp_core.Client.query_nodes server city s t).Psp_core.Client.stats
             .Psp_pir.Server.Session.trace)
         queries)
  in
  (match Psp_core.Privacy.indistinguishable traces with
  | Ok () ->
      Printf.printf "[1] %d queries (10 duplicated, 2 with s = t): all views identical\n"
        (Array.length queries)
  | Error e -> Printf.printf "[1] VIOLATION: %s\n" e);

  (* 2: the view equals what the header alone predicts *)
  let header_pages = PF.page_count db.DB.header_file in
  (match Psp_core.Privacy.conforms db.DB.header ~header_pages (List.hd traces) with
  | Ok () ->
      print_endline
        "[2] the view equals the plan derived from the public header:\n\
        \    the adversary learned nothing it did not already know";
      Format.printf "%a@." Psp_pir.Trace.pp (List.hd traces)
  | Error e -> Printf.printf "[2] VIOLATION: %s\n" e);

  (* 3: the oblivious store underneath *)
  let file = PF.create ~name:"payload" ~page_size:256 in
  for i = 0 to 99 do
    ignore (PF.append file (Bytes.of_string (Printf.sprintf "secret record %d" i)))
  done;
  let probe label plan =
    let store = PS.create ~key:(Psp_crypto.Sha256.digest_string "audit-oram") file in
    List.iter (fun i -> ignore (PS.read store i)) plan;
    let events = PS.physical_trace store in
    let per_epoch = Hashtbl.create 8 in
    let repeats = ref 0 in
    List.iter
      (function
        | PS.Slot { level; epoch; slot } ->
            let seen =
              Option.value ~default:[] (Hashtbl.find_opt per_epoch (level, epoch))
            in
            if List.mem slot seen then incr repeats;
            Hashtbl.replace per_epoch (level, epoch) (slot :: seen)
        | PS.Rebuild _ -> ())
      events;
    let count p = List.length (List.filter p events) in
    Printf.printf
      "    %-22s %3d slot touches, %d rebuilds, %d repeated slots within an epoch\n"
      label
      (count (function PS.Slot _ -> true | _ -> false))
      (count (function PS.Rebuild _ -> true | _ -> false))
      !repeats;
    List.map
      (function
        | PS.Slot { level; epoch; _ } -> `S (level, epoch)
        | PS.Rebuild { level; items } -> `R (level, items))
      events
  in
  print_endline "[3] pyramid ORAM host view:";
  let scan = probe "sequential scan" (List.init 30 (fun i -> i mod 100)) in
  let hammer = probe "same page 30 times" (List.init 30 (fun _ -> 7)) in
  if scan = hammer then
    print_endline
      "    identical event shapes for wildly different access patterns -\n\
      \    the host cannot distinguish them"
  else print_endline "    VIOLATION: shapes differ"
