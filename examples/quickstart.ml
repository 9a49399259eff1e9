(* Quickstart: host a road network behind the PIR interface and answer
   one shortest-path query without the server learning anything.

     dune exec examples/quickstart.exe
*)

module DB = Psp_index.Database
module G = Psp_graph.Graph

let () =
  (* 1. A road network.  Use your own via Psp_netgen.Dimacs, or
     synthesize a small city. *)
  let city =
    Psp_netgen.Synthetic.generate
      { Psp_netgen.Synthetic.nodes = 1500;
        edges = 1700;
        width = 3000.0;
        height = 3000.0;
        seed = 42 }
  in
  Printf.printf "city: %d nodes, %d directed road segments\n" (G.node_count city)
    (G.edge_count city);

  (* 2. Offline: the owner builds the Concise Index database (§5) —
     partitioning, border-node pre-computation, four files. *)
  let db = DB.build_ci ~page_size:4096 city in
  Printf.printf "database: %d regions, %.2f MB across %d files, plan %s\n"
    db.DB.header.Psp_index.Header.region_count
    (float_of_int (DB.total_bytes db) /. 1e6)
    (List.length (DB.files db))
    (Format.asprintf "%a" Psp_index.Query_plan.pp db.DB.header.Psp_index.Header.plan);

  (* 3. The LBS hosts the files; its secure co-processor mediates every
     page access (IBM 4764 cost model from the paper's Table 2). *)
  let server =
    Psp_pir.Server.create ~cost:Psp_pir.Cost_model.ibm4764
      ~key:(Psp_crypto.Sha256.digest_string "quickstart") (DB.files db)
  in

  (* 4. A client asks for a route by coordinates only.  A single query
     is a batch of one. *)
  let sx, sy = G.coords city 17 and tx, ty = G.coords city 1203 in
  let result = (Psp_core.Client.query_batch server [| { sx; sy; tx; ty } |]).(0) in
  (match result.Psp_core.Client.path with
  | None -> print_endline "no route found"
  | Some (nodes, cost) ->
      Printf.printf "route found: %d hops, cost %.1f\n" (List.length nodes - 1) cost;
      Printf.printf "  via nodes: %s ...\n"
        (String.concat " -> "
           (List.filteri (fun i _ -> i < 8) (List.map string_of_int nodes))));

  (* 5. What it cost, and what the server saw. *)
  Format.printf "simulated response time: %a@." Psp_core.Response_time.pp
    (Psp_core.Response_time.of_result result);
  Format.printf "the LBS observed only:@.%a@." Psp_pir.Trace.pp
    result.Psp_core.Client.stats.Psp_pir.Server.Session.trace;
  print_endline "every other query produces exactly the same view (Theorem 1)."
