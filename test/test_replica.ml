(* Replicated serving: authenticated pages, the per-replica circuit
   breaker, and oblivious whole-plan failover.  The headline acceptance
   invariant — for a fixed fault schedule, every replica's observed
   trace (complete plan or abandoned prefix) is byte-identical across
   distinct queries, single and batched — plus: a tampered page is
   detected, survived via failover at status <= Degraded, and never
   yields a wrong path. *)

module F = Psp_fault.Fault
module DB = Psp_index.Database
module PF = Psp_storage.Page_file
module Server = Psp_pir.Server
module Session = Psp_pir.Server.Session
module Breaker = Psp_pir.Breaker
module RS = Psp_pir.Replica_set
open Psp_core

let key = Psp_crypto.Sha256.digest_string "replica tests"
let cost = Psp_pir.Cost_model.ibm4764
let page_size = 256

let network ?(nodes = 150) ?(seed = 11) () =
  Psp_netgen.Synthetic.generate
    { Psp_netgen.Synthetic.nodes;
      edges = nodes + (nodes / 8);
      width = 1000.0;
      height = 1000.0;
      seed }

let g = network ()
let queries = Psp_netgen.Synthetic.random_queries g ~count:12 ~seed:5
let db = lazy (DB.build_ci ~page_size g)

(* a fresh set per run: replica selection is public breaker state, and
   the equality tests must not let one query's failovers change the
   next query's starting replica *)
let rset ?(replicas = 2) () =
  RS.create ~cost ~key ~replicas (DB.files (Lazy.force db))

let with_faults arms f =
  List.iter (fun (name, sched) -> F.arm name sched) arms;
  Fun.protect ~finally:F.reset f

let close_cost got truth = Float.abs (got -. truth) <= 1e-3 *. Float.max 1.0 truth

let check_correct name (r : Client.result) s t =
  let truth = Psp_graph.Dijkstra.distance g s t in
  match r.Client.path with
  | None -> Alcotest.fail (Printf.sprintf "%s: no path %d->%d" name s t)
  | Some (_, got) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d->%d correct" name s t)
        true (close_cost got truth)

let fp (s : Session.stats) = Psp_pir.Trace.fingerprint s.Session.trace

(* every trace a replicated query exposed, replica by replica: the
   abandoned attempts (prefixes) in order, then the serving attempt *)
let attempt_fingerprints (rep : Client.replicated) =
  List.map
    (fun (a : Client.abandoned) ->
      (a.Client.on_replica, a.Client.reason, Array.map fp a.Client.attempt_stats))
    rep.Client.abandoned
  @ [ ( rep.Client.replica,
        "served",
        Array.map (fun (r : Client.result) -> fp r.Client.stats) rep.Client.results ) ]

(* ------------------------------------------------------------------ *)
(* Authenticated pages *)

let test_seal_and_authenticate () =
  let f = PF.create ~name:"auth" ~page_size:64 in
  let no = PF.append f (Bytes.of_string "payload") in
  Alcotest.(check bool) "fresh file unsealed" false (PF.sealed f);
  PF.seal f ~key;
  Alcotest.(check bool) "sealed" true (PF.sealed f);
  Alcotest.(check int) "tag size" PF.tag_size (Bytes.length (PF.page_tag f no));
  let page = PF.read f no in
  Alcotest.(check bool) "genuine page verifies" true (PF.authenticate f ~key no page);
  (* a Byzantine host can recompute the CRC but not the tag *)
  let forged = Bytes.copy page in
  Bytes.set forged 0 (Char.chr (Char.code (Bytes.get forged 0) lxor 0x80));
  Alcotest.(check bool) "tampered page rejected" false
    (PF.authenticate f ~key no forged);
  Alcotest.(check bool) "wrong key rejected" false
    (PF.authenticate f ~key:(Psp_crypto.Sha256.digest_string "other") no page);
  (* the derived-key state is cached per master key: switching back must
     not reuse the other key's *)
  Alcotest.(check bool) "right key accepted again" true (PF.authenticate f ~key no page);
  (* resealing under the same key keeps the tags; appending drops them *)
  let tag = PF.page_tag f no in
  PF.seal f ~key;
  Alcotest.(check bytes) "reseal is a no-op" tag (PF.page_tag f no);
  ignore (PF.append_blank f);
  Alcotest.(check bool) "append unseals" false (PF.sealed f)

let test_tags_survive_save_load () =
  let f = PF.create ~name:"roundtrip" ~page_size:64 in
  for i = 0 to 4 do
    ignore (PF.append f (Bytes.of_string (Printf.sprintf "page %d" i)))
  done;
  PF.seal f ~key;
  let path = Filename.temp_file "psp_replica" ".pages" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      PF.save f ~path;
      let f' = PF.load_exn ~path in
      Alcotest.(check bool) "loaded file still sealed" true (PF.sealed f');
      for no = 0 to 4 do
        Alcotest.(check bytes)
          (Printf.sprintf "tag %d preserved" no)
          (PF.page_tag f no) (PF.page_tag f' no);
        Alcotest.(check bool)
          (Printf.sprintf "page %d authenticates after reload" no)
          true
          (PF.authenticate f' ~key no (PF.read f' no))
      done)

(* ------------------------------------------------------------------ *)
(* Breaker state machine *)

let test_breaker_state_machine () =
  let b = Breaker.create ~threshold:2 ~cooldown:1.0 ~seed:0 () in
  Alcotest.(check bool) "starts closed" true (Breaker.state b = Breaker.Closed);
  Alcotest.(check bool) "closed admits" true (Breaker.available b ~now:0.0);
  Breaker.record_failure b ~now:0.0;
  Alcotest.(check bool) "below threshold stays closed" true
    (Breaker.state b = Breaker.Closed);
  Breaker.record_failure b ~now:0.0;
  Alcotest.(check bool) "threshold trips open" true (Breaker.state b = Breaker.Open);
  let until = Breaker.cooldown_until b in
  Alcotest.(check bool) "cooldown within jittered base" true
    (until >= 0.75 && until < 1.25);
  Alcotest.(check bool) "open shuns" false (Breaker.available b ~now:(until /. 2.0));
  Alcotest.(check bool) "cooldown elapsed admits probe" true
    (Breaker.available b ~now:until);
  Alcotest.(check bool) "probe state" true (Breaker.state b = Breaker.Half_open);
  (* a failed probe re-opens with a doubled (jittered) cooldown *)
  Breaker.record_failure b ~now:until;
  Alcotest.(check bool) "failed probe re-opens" true (Breaker.state b = Breaker.Open);
  let until2 = Breaker.cooldown_until b in
  Alcotest.(check bool) "backoff grows" true
    (until2 -. until >= 2.0 *. 0.75 && until2 -. until < 2.0 *. 1.25);
  Alcotest.(check bool) "probe again" true (Breaker.available b ~now:until2);
  Breaker.record_success b;
  Alcotest.(check bool) "success closes" true (Breaker.state b = Breaker.Closed);
  (* and resets the streak: one new failure is below threshold again *)
  Breaker.record_failure b ~now:until2;
  Alcotest.(check bool) "streak reset" true (Breaker.state b = Breaker.Closed)

let test_replica_set_selection () =
  let set = rset ~replicas:3 () in
  Alcotest.(check int) "width" 3 (RS.width set);
  Alcotest.(check (option int)) "starts at replica 0" (Some 0) (RS.select set);
  RS.record_failure set 0;
  Alcotest.(check (option int)) "failure moves on" (Some 1) (RS.select set);
  RS.record_success set 1;
  Alcotest.(check (option int)) "success sticks" (Some 1) (RS.select set);
  (* trip every breaker: threshold is 3 by default *)
  for _ = 1 to 3 do
    RS.record_failure set 0;
    RS.record_failure set 1;
    RS.record_failure set 2
  done;
  Alcotest.(check (option int)) "all open: nobody serves" None (RS.select set);
  (match RS.select_exn set with
  | exception RS.No_replica_available -> ()
  | i -> Alcotest.fail (Printf.sprintf "expected No_replica_available, got %d" i));
  (* simulated time heals: past every cooldown a probe is admitted *)
  RS.advance set 1000.0;
  Alcotest.(check bool) "cooldown elapsed readmits" true (RS.select set <> None)

(* ------------------------------------------------------------------ *)
(* Failover *)

let test_tamper_survived_via_failover () =
  let set = rset () in
  let s, t = queries.(0) in
  with_faults [ ("pir.fetch.tamper", F.First 1) ] (fun () ->
      let rep = Client.query_nodes_replicated set g s t in
      let r = rep.Client.results.(0) in
      check_correct "tamper" r s t;
      Alcotest.(check int) "one failover" 1 rep.Client.failovers;
      Alcotest.(check int) "served by replica 1" 1 rep.Client.replica;
      (match rep.Client.abandoned with
      | [ a ] ->
          Alcotest.(check int) "abandoned replica 0" 0 a.Client.on_replica;
          Alcotest.(check bool) "classified as tampering" true
            (String.length a.Client.reason >= 16
            && String.sub a.Client.reason 0 16 = "pir.fetch.tamper")
      | l -> Alcotest.fail (Printf.sprintf "expected 1 abandoned, got %d" (List.length l)));
      (match r.Client.status with
      | Client.Degraded { retries } ->
          Alcotest.(check int) "failover counted as retry" 1 retries
      | _ -> Alcotest.fail "expected Degraded");
      Alcotest.(check bool) "switch cost charged" true
        (rep.Client.failover_seconds > 0.0))

let test_tamper_never_wrong_path () =
  (* even under sustained tampering the client either serves the right
     path or reports Unavailable — never a silently wrong answer *)
  let set = rset ~replicas:3 () in
  let s, t = queries.(1) in
  let truth = Psp_graph.Dijkstra.distance g s t in
  with_faults [ ("pir.fetch.tamper", F.Probability 0.2) ] (fun () ->
      for _ = 1 to 5 do
        match Client.query_nodes_replicated set g s t with
        | exception RS.No_replica_available ->
            (* every breaker open is a legitimate outage; let simulated
               time pass so the set can heal *)
            RS.advance set 1000.0
        | rep -> (
            let r = rep.Client.results.(0) in
            match (r.Client.status, r.Client.path) with
            | (Client.Served | Client.Degraded _), Some (_, got) ->
                Alcotest.(check bool) "served answers are right" true
                  (close_cost got truth)
            | (Client.Served | Client.Degraded _), None ->
                Alcotest.fail "served without a path"
            | Client.Unavailable _, None -> ()
            | Client.Unavailable _, Some _ -> Alcotest.fail "unavailable with a path"
            | Client.Unknown_scheme _, _ -> Alcotest.fail "unknown scheme")
      done)

let test_down_burst_survived () =
  let set = rset () in
  let s, t = queries.(2) in
  (* both replicas answer dead once each, then the burst passes *)
  with_faults [ ("pir.replica.down", F.First 2) ] (fun () ->
      let rep = Client.query_nodes_replicated set g s t in
      check_correct "down burst" rep.Client.results.(0) s t;
      Alcotest.(check int) "two failovers" 2 rep.Client.failovers;
      Alcotest.(check int) "back on replica 0" 0 rep.Client.replica)

let test_timeout_fails_over () =
  let set = rset () in
  let s, t = queries.(3) in
  (* three spikes of 10 RTT pass the 25-RTT budget on replica 0 only *)
  with_faults [ ("pir.replica.latency", F.First 3) ] (fun () ->
      let rep = Client.query_nodes_replicated set g s t in
      check_correct "timeout" rep.Client.results.(0) s t;
      Alcotest.(check int) "one failover" 1 rep.Client.failovers;
      match rep.Client.abandoned with
      | [ a ] ->
          Alcotest.(check string) "classified as timeout" "pir.replica.timeout(0)"
            a.Client.reason
      | _ -> Alcotest.fail "expected one abandoned attempt")

let test_all_replicas_down_unavailable () =
  let set = rset () in
  let s, t = queries.(4) in
  with_faults [ ("pir.replica.down", F.Always) ] (fun () ->
      let rep = Client.query_nodes_replicated ~max_failovers:4 set g s t in
      let r = rep.Client.results.(0) in
      Alcotest.(check bool) "no path" true (r.Client.path = None);
      match r.Client.status with
      | Client.Unavailable { point; attempts } ->
          Alcotest.(check bool) "outage named" true
            (String.length point >= 16 && String.sub point 0 16 = "pir.replica.down");
          (* max_failovers 4 admits the initial attempt plus 4 replays *)
          Alcotest.(check int) "budget honoured" 5 attempts
      | _ -> Alcotest.fail "expected Unavailable")

let test_retry_exhaustion_fails_over () =
  (* transient faults exhaust the per-replica retry budget on replica 0;
     the plan then replays cleanly on replica 1 (rewind is per query,
     not per attempt — the schedule keeps advancing across attempts) *)
  let set = rset () in
  let s, t = queries.(5) in
  with_faults [ ("pir.fetch.transient", F.First 1000) ] (fun () ->
      let retry = { Client.max_attempts = 2; base_backoff = 0.1 } in
      let rep = Client.query_nodes_replicated ~retry set g s t in
      let r = rep.Client.results.(0) in
      Alcotest.(check bool) "eventually unavailable or served" true
        (match r.Client.status with
        | Client.Unavailable _ | Client.Degraded _ | Client.Served -> true
        | _ -> false);
      Alcotest.(check bool) "every replica was tried" true (rep.Client.failovers >= 2))

(* An LM query that outgrows its calibrated plan fails closed, and that
   is the query's own outcome, not a failed exchange: replaying it on
   another replica would show that replica which query overran. *)
let test_overrun_no_failover () =
  let lm, _ = DB.build_lm ~anchors:3 ~seed:2 ~page_size g in
  let lm = Calibrate.lm lm ~queries:(Array.sub queries 0 3) in
  let exceeded (r : Client.result) =
    match r.Client.status with
    | Client.Unavailable { point; attempts = 0 } -> point = Client.plan_exceeded
    | _ -> false
  in
  let probe = Server.create ~cost ~key (DB.files lm) in
  let s, t =
    match
      List.find_opt
        (fun (s, t) -> exceeded (Client.query_nodes probe g s t))
        (Array.to_list (Psp_netgen.Synthetic.random_queries g ~count:200 ~seed:8))
    with
    | Some pair -> pair
    | None -> Alcotest.fail "no LM query outgrows the calibrated plan"
  in
  let set = RS.create ~mode:`Pyramid ~cost ~key ~replicas:3 (DB.files lm) in
  let rep = Client.query_nodes_replicated set g s t in
  Alcotest.(check bool) "plan exceeded" true (exceeded rep.Client.results.(0));
  Alcotest.(check int) "no failover" 0 rep.Client.failovers;
  Alcotest.(check int) "nothing abandoned" 0 (List.length rep.Client.abandoned);
  for i = 0 to RS.width set - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "replica %d touched iff it served" i)
      (i = rep.Client.replica)
      (Server.executed_slot_touches (RS.server set i) > 0)
  done

(* ------------------------------------------------------------------ *)
(* The acceptance invariant: per-replica trace equality *)

(* under a fixed schedule, replayed from the top for every query, each
   replica sees byte-identical traces for distinct queries — both the
   abandoned prefixes and the serving attempt *)
let test_traces_equal_across_queries () =
  let schedules =
    [ ("tamper mid-plan", [ ("pir.fetch.tamper", F.Hits [ 4 ]) ]);
      ("outage then spike",
       [ ("pir.replica.down", F.First 1); ("pir.replica.latency", F.Hits [ 9 ]) ]);
      ("tamper after retry",
       [ ("pir.fetch.transient", F.Hits [ 2 ]); ("pir.fetch.tamper", F.Hits [ 6 ]) ]) ]
  in
  List.iter
    (fun (label, arms) ->
      let run (s, t) =
        with_faults arms (fun () ->
            let set = rset () in
            let rep = Client.query_nodes_replicated set g s t in
            check_correct label rep.Client.results.(0) s t;
            attempt_fingerprints rep)
      in
      let reference = run queries.(0) in
      Alcotest.(check bool)
        (label ^ ": schedule actually exercised failover") true
        (List.length reference >= 2);
      for i = 1 to 5 do
        let other = run queries.(i) in
        Alcotest.(check bool)
          (Printf.sprintf "%s: query %d, identical per-replica views" label i)
          true
          (reference = other)
      done)
    schedules

(* the same invariant for batches, plus mutual indistinguishability of
   the members inside every attempt, on every replica *)
let test_batch_traces_equal_and_members_indistinguishable () =
  let arms = [ ("pir.fetch.tamper", F.Hits [ 5 ]) ] in
  let run pairs =
    with_faults arms (fun () ->
        let set = rset () in
        let rep = Client.query_batch_replicated set (Client.endpoints_of_nodes g pairs) in
        Array.iteri
          (fun i (r : Client.result) ->
            let s, t = pairs.(i) in
            check_correct (Printf.sprintf "batch[%d]" i) r s t)
          rep.Client.results;
        (* members of every attempt — abandoned or serving — must be
           mutually indistinguishable: the replica saw one merged pass *)
        List.iter
          (fun (a : Client.abandoned) ->
            let traces =
              Array.to_list
                (Array.map (fun (s : Session.stats) -> s.Session.trace)
                   a.Client.attempt_stats)
            in
            match Privacy.indistinguishable traces with
            | Ok () -> ()
            | Error e -> Alcotest.fail ("abandoned attempt members leak: " ^ e))
          rep.Client.abandoned;
        let traces =
          Array.to_list
            (Array.map
               (fun (r : Client.result) -> r.Client.stats.Session.trace)
               rep.Client.results)
        in
        (match Privacy.indistinguishable traces with
        | Ok () -> ()
        | Error e -> Alcotest.fail ("serving attempt members leak: " ^ e));
        attempt_fingerprints rep)
  in
  let reference = run (Array.sub queries 0 4) in
  Alcotest.(check bool) "failover exercised" true (List.length reference >= 2);
  let other = run (Array.sub queries 4 4) in
  Alcotest.(check bool) "different batches, identical per-replica views" true
    (reference = other)

(* ------------------------------------------------------------------ *)
(* The header is authenticated like every other page *)

let is_header_tamper reason = reason = "pir.fetch.tamper(header)"

let test_header_tamper_survived () =
  let set = rset () in
  let s, t = queries.(0) in
  with_faults [ ("pir.download.tamper", F.First 1) ] (fun () ->
      let rep = Client.query_nodes_replicated set g s t in
      check_correct "header tamper" rep.Client.results.(0) s t;
      Alcotest.(check int) "one failover" 1 rep.Client.failovers;
      Alcotest.(check int) "served by replica 1" 1 rep.Client.replica;
      match rep.Client.abandoned with
      | [ a ] ->
          Alcotest.(check bool) "classified as header tampering" true
            (is_header_tamper a.Client.reason)
      | l -> Alcotest.fail (Printf.sprintf "expected 1 abandoned, got %d" (List.length l)))

(* a standalone server is not a replica set of one: the typed failure
   escapes to the caller instead of a silently wrong plan *)
let test_header_tamper_standalone () =
  let server = Server.create ~cost ~key (DB.files (Lazy.force db)) in
  let s, t = queries.(1) in
  with_faults [ ("pir.download.tamper", F.First 1) ] (fun () ->
      match Client.query_nodes server g s t with
      | exception Client.Replica_failed { replica = 0; reason; stats } ->
          Alcotest.(check bool) "header tampering reason" true (is_header_tamper reason);
          Alcotest.(check int) "the abandoned session travels" 1 (Array.length stats)
      | _ -> Alcotest.fail "expected Replica_failed from a standalone server")

let test_header_tamper_batch_indistinguishable () =
  let run pairs =
    with_faults [ ("pir.download.tamper", F.First 1) ] (fun () ->
        let set = rset () in
        let rep = Client.query_batch_replicated set (Client.endpoints_of_nodes g pairs) in
        Array.iteri
          (fun i (r : Client.result) ->
            let s, t = pairs.(i) in
            check_correct (Printf.sprintf "header batch[%d]" i) r s t)
          rep.Client.results;
        List.iter
          (fun (a : Client.abandoned) ->
            match
              Privacy.indistinguishable
                (Array.to_list
                   (Array.map (fun (s : Session.stats) -> s.Session.trace)
                      a.Client.attempt_stats))
            with
            | Ok () -> ()
            | Error e -> Alcotest.fail ("abandoned header attempt members leak: " ^ e))
          rep.Client.abandoned;
        attempt_fingerprints rep)
  in
  let reference = run (Array.sub queries 0 3) in
  Alcotest.(check int) "header failover exercised" 2 (List.length reference);
  Alcotest.(check bool) "different batches, identical per-replica views" true
    (reference = run (Array.sub queries 3 3))

(* 32-seed sweep: random schedules over the replica failpoints, random
   query pairs — the per-replica views stay equal whenever the schedule
   replays per query *)
let test_seed_sweep () =
  for seed = 0 to 31 do
    let rng = Psp_util.Rng.create (0x5eed + seed) in
    let pick n = 1 + Psp_util.Rng.int rng n in
    let arms =
      List.filteri
        (fun i _ -> i = seed mod 3 || Psp_util.Rng.int rng 2 = 0)
        [ ("pir.fetch.tamper", F.Hits [ pick 10 ]);
          ("pir.replica.down", F.Hits [ pick 4 ]);
          ("pir.replica.latency", F.Hits [ pick 8; 8 + pick 8; 16 + pick 8 ]) ]
    in
    let qs = Psp_netgen.Synthetic.random_queries g ~count:2 ~seed in
    let run (s, t) =
      with_faults arms (fun () ->
          let set = rset ~replicas:3 () in
          attempt_fingerprints (Client.query_nodes_replicated set g s t))
    in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: distinct queries, equal per-replica views" seed)
      true
      (run qs.(0) = run qs.(1))
  done

let () =
  Alcotest.run "replica"
    [ ( "authenticated pages",
        [ Alcotest.test_case "seal and authenticate" `Quick test_seal_and_authenticate;
          Alcotest.test_case "tags survive save/load" `Quick
            test_tags_survive_save_load ] );
      ( "breaker",
        [ Alcotest.test_case "state machine" `Quick test_breaker_state_machine;
          Alcotest.test_case "replica set selection" `Quick test_replica_set_selection ] );
      ( "failover",
        [ Alcotest.test_case "tamper survived" `Quick test_tamper_survived_via_failover;
          Alcotest.test_case "tamper never wrong" `Quick test_tamper_never_wrong_path;
          Alcotest.test_case "down burst survived" `Quick test_down_burst_survived;
          Alcotest.test_case "timeout fails over" `Quick test_timeout_fails_over;
          Alcotest.test_case "all replicas down" `Quick
            test_all_replicas_down_unavailable;
          Alcotest.test_case "retry exhaustion fails over" `Quick
            test_retry_exhaustion_fails_over;
          Alcotest.test_case "plan overrun does not fail over" `Quick
            test_overrun_no_failover ] );
      ( "header",
        [ Alcotest.test_case "tamper survived via failover" `Quick
            test_header_tamper_survived;
          Alcotest.test_case "standalone raises Replica_failed" `Quick
            test_header_tamper_standalone;
          Alcotest.test_case "batch members indistinguishable" `Quick
            test_header_tamper_batch_indistinguishable ] );
      ( "trace equality",
        [ Alcotest.test_case "equal across queries" `Slow
            test_traces_equal_across_queries;
          Alcotest.test_case "batched: equal and indistinguishable" `Slow
            test_batch_traces_equal_and_members_indistinguishable;
          Alcotest.test_case "32-seed sweep" `Slow test_seed_sweep ] ) ]
