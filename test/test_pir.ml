(* PIR substrate: Table 2 cost model, pyramid ORAM obliviousness and
   correctness, server session accounting and the adversary trace. *)

module CM = Psp_pir.Cost_model
module Server = Psp_pir.Server
module Session = Psp_pir.Server.Session
module Trace = Psp_pir.Trace
module PF = Psp_storage.Page_file

let key = Psp_crypto.Sha256.digest_string "test key"

let make_file ?(name = "data") ~pages ~page_size () =
  let f = PF.create ~name ~page_size in
  for i = 0 to pages - 1 do
    ignore (PF.append f (Bytes.of_string (Printf.sprintf "page-%06d" i)))
  done;
  f

(* ------------------------------------------------------------------ *)
(* Cost model *)

let test_table2_constants () =
  let c = CM.ibm4764 in
  Alcotest.(check int) "page size" 4096 c.CM.page_size;
  Alcotest.(check (float 0.0)) "seek" 0.011 c.CM.disk_seek;
  Alcotest.(check (float 0.0)) "rtt" 0.7 c.CM.rtt;
  Alcotest.(check int) "scp ram" (32 * 1024 * 1024) c.CM.scp_memory

let test_page_op_cost () =
  (* dominated by the 11 ms seek; crypto adds ~0.8 ms *)
  let t = CM.page_op_seconds CM.ibm4764 in
  Alcotest.(check bool) (Printf.sprintf "%.4fs in [0.011, 0.013]" t) true
    (t >= 0.011 && t <= 0.013)

let test_pir_1s_per_gb () =
  (* the paper: ~1 second per retrieval from a 1 GByte file *)
  let pages = 1_000_000_000 / 4096 in
  let t = CM.pir_fetch_seconds CM.ibm4764 ~file_pages:pages in
  Alcotest.(check bool) (Printf.sprintf "%.2fs within [0.8, 1.2]" t) true
    (t >= 0.8 && t <= 1.2)

let test_pir_monotone () =
  let f n = CM.pir_fetch_seconds CM.ibm4764 ~file_pages:n in
  Alcotest.(check bool) "larger file costs more" true (f 100_000 > f 1_000);
  Alcotest.(check bool) "small file costs at least one op" true
    (f 2 >= CM.page_op_seconds CM.ibm4764)

let test_max_file_2_5gb () =
  (* 32 MB SCP RAM, c = 10: the paper quotes a 2.5 GByte bound *)
  let limit = CM.max_file_bytes CM.ibm4764 in
  Alcotest.(check bool)
    (Printf.sprintf "limit %.2f GB in [2.3, 3.0]" (float_of_int limit /. 1e9))
    true
    (limit >= 2_300_000_000 && limit <= 3_000_000_000);
  Alcotest.(check bool) "supports 1GB" true (CM.supports_file CM.ibm4764 ~bytes:1_000_000_000);
  Alcotest.(check bool) "rejects 5GB" false (CM.supports_file CM.ibm4764 ~bytes:5_000_000_000)

let test_scp_memory_needed () =
  let c = CM.ibm4764 in
  let need = CM.scp_memory_needed c ~file_pages:10_000 in
  Alcotest.(check int) "c*sqrt(N) pages" (10 * 100 * 4096) need

(* The SCP holds each level's Feistel round tables (O(sqrt domain)
   words).  Over the largest file the paper's SCP supports, the tables of
   every level together — the deepest level's domain is the largest —
   must fit the c*sqrt(N) memory the cost model budgets for that file. *)
let test_feistel_tables_fit_scp () =
  let c = CM.ibm4764 in
  let file_pages = CM.max_file_bytes c / c.CM.page_size in
  let cache_capacity = Psp_pir.Pyramid_store.default_cache_capacity in
  let levels = CM.pyramid_levels ~cache_capacity ~file_pages in
  let words depth =
    let cap, dummies = CM.pyramid_level ~cache_capacity ~file_pages ~depth in
    Psp_crypto.Feistel.table_words (Psp_crypto.Feistel.create ~key ~domain:(cap + dummies))
  in
  let deepest = words levels in
  let total = List.fold_left ( + ) 0 (List.init levels (fun i -> words (i + 1))) in
  let budget = CM.scp_memory_needed c ~file_pages in
  Alcotest.(check int) "deepest level: 32 KB of tables" (32 * 1024) (8 * deepest);
  Alcotest.(check bool)
    (Printf.sprintf "%d table bytes over %d levels within the %d-byte budget" (8 * total)
       levels budget)
    true
    (8 * total <= budget)

(* The layout the host sees, pinned: [(cap, dummies)] of every level of
   the stores over a 1-page file, the 19-page CI data file of the perf
   workloads, their 242-page PI index and the 30,195-page PI index of
   Germany at scale 1.  A shallow level holds three merges of
   c*4^(j-1) pages, the deepest the n pages of the file, and every level
   has one dummy per read between two of its rebuilds (DESIGN.md). *)
let test_pyramid_level_table () =
  let cache_capacity = Psp_pir.Pyramid_store.default_cache_capacity in
  let layout n =
    List.init (CM.pyramid_levels ~cache_capacity ~file_pages:n) (fun i ->
        CM.pyramid_level ~cache_capacity ~file_pages:n ~depth:(i + 1))
  in
  let host_slots n = List.fold_left (fun acc (cap, d) -> acc + cap + d) 0 (layout n) in
  let pair = Alcotest.(list (pair int int)) in
  Alcotest.check pair "1 page" [ (1, 4) ] (layout 1);
  Alcotest.check pair "19 pages" [ (12, 4); (19, 16) ] (layout 19);
  Alcotest.check pair "242 pages" [ (12, 4); (48, 16); (242, 64) ] (layout 242);
  Alcotest.check pair "30195 pages"
    [ (12, 4); (48, 16); (192, 64); (768, 256); (3072, 1024); (12288, 4096); (30195, 16384) ]
    (layout 30195);
  Alcotest.(check (list int)) "host slots" [ 5; 51; 386; 68419 ]
    (List.map host_slots [ 1; 19; 242; 30195 ])

let test_with_max_file () =
  let c = CM.with_max_file CM.ibm4764 ~bytes:10_000_000 in
  let limit = CM.max_file_bytes c in
  Alcotest.(check bool)
    (Printf.sprintf "rescaled limit %d ~ 10MB" limit)
    true
    (abs (limit - 10_000_000) < 1_000_000)

let test_transfer_time () =
  (* 48 KB at 48 KB/s = 1 s *)
  Alcotest.(check (float 1e-9)) "1s" 1.0 (CM.transfer_seconds CM.ibm4764 ~bytes:48_000)

(* ------------------------------------------------------------------ *)
(* Pyramid (hierarchical) store *)

(* a tiny model so tests can hand-check the arithmetic *)
let small_cost = { CM.ibm4764 with CM.page_size = 64 }

module PS = Psp_pir.Pyramid_store

(* a single private fetch is a width-1 merged pass *)
let fetch s ~file ~page = (Session.fetch s ~file ~pages:[| page |]).(0)

(* a single query is a width-1 session *)
let start server = Session.start server ~width:1
let finish s = (Session.finish s).(0)

let test_pyramid_reads_correct () =
  let f = make_file ~pages:60 ~page_size:32 () in
  let s = PS.create ~key f in
  Alcotest.(check int) "pages" 60 (PS.page_count s);
  Alcotest.(check bool) "multiple levels" true (PS.level_count s >= 2);
  let rng = Psp_util.Rng.create 3 in
  for q = 1 to 400 do
    let i = if q mod 4 = 0 then 9 else Psp_util.Rng.int rng 60 in
    let got = PS.read s i in
    Alcotest.(check string) "content" (Printf.sprintf "page-%06d" i)
      (Bytes.to_string (Bytes.sub got 0 11))
  done

let pyramid_shape events =
  List.map
    (function
      | PS.Slot { level; epoch; _ } -> `S (level, epoch)
      | PS.Rebuild { level; items } -> `R (level, items))
    events

let test_pyramid_pattern_independent () =
  let f = make_file ~pages:50 ~page_size:32 () in
  let mk () = PS.create ~key f in
  let s1 = mk () and s2 = mk () in
  for i = 0 to 149 do
    ignore (PS.read s1 (i mod 50));
    ignore (PS.read s2 0)
  done;
  Alcotest.(check bool) "same host-visible shape" true
    (pyramid_shape (PS.physical_trace s1) = pyramid_shape (PS.physical_trace s2))

let test_pyramid_no_slot_repeats () =
  let f = make_file ~pages:40 ~page_size:32 () in
  let s = PS.create ~key f in
  let rng = Psp_util.Rng.create 8 in
  for _ = 1 to 200 do
    ignore (PS.read s (Psp_util.Rng.int rng 40))
  done;
  let tbl = Hashtbl.create 64 in
  List.iter
    (function
      | PS.Slot { level; epoch; slot } ->
          let k = (level, epoch) in
          let seen = Option.value ~default:[] (Hashtbl.find_opt tbl k) in
          Alcotest.(check bool) "slot fresh within level epoch" false (List.mem slot seen);
          Hashtbl.replace tbl k (slot :: seen)
      | PS.Rebuild _ -> ())
    (PS.physical_trace s)

let test_pyramid_one_touch_per_level () =
  let f = make_file ~pages:30 ~page_size:32 () in
  let s = PS.create ~key f in
  PS.clear_trace s;
  ignore (PS.read s 5);
  let slots =
    List.filter_map
      (function PS.Slot { level; _ } -> Some level | PS.Rebuild _ -> None)
      (PS.physical_trace s)
  in
  Alcotest.(check int) "one slot per level" (PS.level_count s) (List.length slots);
  Alcotest.(check (list int)) "top-down order" (List.init (PS.level_count s) (fun i -> i + 1))
    slots

(* The host-visible trace over a fixed key and access sequence, pinned
   by digest: 40 reads and a width-9 merged pass cross 15 rebuilds, so
   the Feistel slot layouts, membership tests and dummy draws of
   several epochs per level all feed it. *)
let test_pyramid_golden_trace () =
  let s = PS.create ~key:(Psp_crypto.Sha256.digest_string "golden-pyramid")
      (make_file ~pages:60 ~page_size:32 ()) in
  for i = 0 to 39 do
    ignore (PS.read s (i * 7 mod 60))
  done;
  ignore (PS.fetch_many s [| 3; 41; 3; 17; 59; 0; 41; 8; 3 |]);
  let event = function
    | PS.Slot { level; epoch; slot } -> Printf.sprintf "S%d.%d.%d" level epoch slot
    | PS.Rebuild { level; items } -> Printf.sprintf "R%d.%d" level items
  in
  let trace = PS.physical_trace s in
  Alcotest.(check int) "events" 113 (List.length trace);
  Alcotest.(check string) "trace digest"
    "f5379c123ee3a38d48d7ea956da1879ea24869feee6688745aa5c29fdec01e95"
    (Psp_crypto.Sha256.hex
       (Psp_crypto.Sha256.digest_string (String.concat ";" (List.map event trace))));
  Alcotest.(check string) "host bytes after the sequence"
    "47e390808a0be00ec2e9fe255ec6bc616da8d86cbc1020b92328cb369f3db35b"
    (Psp_crypto.Sha256.hex (PS.host_digest s))

(* The bytes the host stores, pinned after creation and after every
   flush of a 60-page store: every slot of every rebuilt level must be
   rewritten under its epoch's key, so an item or dummy left over from
   an earlier epoch changes a digest even when no slot touch moves. *)
let test_pyramid_golden_host_bytes () =
  let s = PS.create ~key:(Psp_crypto.Sha256.digest_string "golden-pyramid")
      (make_file ~pages:60 ~page_size:32 ()) in
  let snapshots = ref [ Psp_crypto.Sha256.hex (PS.host_digest s) ] in
  for i = 0 to 67 do
    ignore (PS.read s (i * 11 mod 60));
    if (i + 1) mod PS.cache_capacity s = 0 then
      snapshots := Psp_crypto.Sha256.hex (PS.host_digest s) :: !snapshots
  done;
  Alcotest.(check int) "snapshots" 18 (List.length !snapshots);
  Alcotest.(check string) "host bytes after every flush"
    "04b737bc85e49aaae8eb6c81469fd666c1c078768bbb3255788fa1d8c9c94ee0"
    (Psp_crypto.Sha256.hex
       (Psp_crypto.Sha256.digest_string (String.concat ";" (List.rev !snapshots))))

(* The tight layout under load: file sizes on both sides of every level
   boundary up to four levels, fetch_many widths 1-16, and three access
   patterns — all-distinct cyclic (fills each shallow level to its three
   merges), random, and one repeated page (nearly every touch is a
   dummy) — each run over two rebuild periods of the deepest level and
   then a sweep of every page.  A level one item or one dummy short of
   its bound raises (overflow or dummy exhaustion). *)
let test_pyramid_layout_stress () =
  let sizes = [ 1; 4; 5; 16; 17; 19; 48; 49; 64; 65; 192; 193; 256; 257 ] in
  List.iter
    (fun n ->
      let f = make_file ~pages:n ~page_size:16 () in
      let s = PS.create ~key f in
      let period = PS.cache_capacity s * (1 lsl (2 * (PS.level_count s - 1))) in
      let rng = Psp_util.Rng.create n in
      let patterns =
        [ (fun i -> i mod n); (fun _ -> Psp_util.Rng.int rng n); (fun _ -> n / 2) ]
      in
      let check ids =
        Array.iteri
          (fun m got ->
            let want = Printf.sprintf "page-%06d" ids.(m) in
            if Bytes.sub_string got 0 11 <> want then
              Alcotest.failf "n=%d width=%d: %s read as %S" n (Array.length ids) want
                (Bytes.sub_string got 0 11))
          (PS.fetch_many s ids)
      in
      for width = 1 to 16 do
        List.iter
          (fun page ->
            for q = 0 to ((2 * period) + width - 1) / width - 1 do
              check (Array.init width (fun m -> page ((q * width) + m)))
            done)
          patterns;
        for q = 0 to (n - 1) / width do
          check (Array.init width (fun m -> ((q * width) + m) mod n))
        done
      done)
    sizes

let test_pyramid_server_mode () =
  let f = make_file ~pages:20 ~page_size:64 () in
  let server = Server.create ~mode:`Pyramid ~cost:small_cost ~key [ f ] in
  let s = start server in
  for i = 0 to 19 do
    let got = fetch s ~file:"data" ~page:i in
    Alcotest.(check string) "pyramid-served read" (Printf.sprintf "page-%06d" i)
      (Bytes.to_string (Bytes.sub got 0 11))
  done

(* ------------------------------------------------------------------ *)
(* The oblivious-store contract the server relies on, checked on its
   one store: correct reads, host-visible slots fresh within an epoch,
   a trace shape that does not depend on the logical sequence, a fixed
   rebuild cadence, keyed placement, bounds and tamper detection. *)

let test_store_reads_correct () =
  let f = make_file ~pages:37 ~page_size:64 () in
  let s = PS.create ~key f in
  Alcotest.(check int) "pages" 37 (PS.page_count s);
  for _ = 1 to 3 do
    for i = 0 to 36 do
      let got = PS.read s i in
      Alcotest.(check string) "content" (Printf.sprintf "page-%06d" i)
        (Bytes.to_string (Bytes.sub got 0 11))
    done
  done

let test_store_repeated_reads () =
  let s = PS.create ~key (make_file ~pages:25 ~page_size:32 ()) in
  for _ = 1 to 40 do
    let got = PS.read s 7 in
    Alcotest.(check string) "same page every time" "page-000007"
      (Bytes.to_string (Bytes.sub got 0 11))
  done

let test_store_no_slot_repeats () =
  (* a heavily repeated logical pattern still touches fresh slots *)
  let s = PS.create ~key (make_file ~pages:50 ~page_size:32 ()) in
  for _ = 1 to 30 do
    ignore (PS.read s 3)
  done;
  let seen = Hashtbl.create 64 in
  List.iter
    (function
      | PS.Slot { level; epoch; slot } ->
          Alcotest.(check bool) "distinct slots per level epoch" false
            (Hashtbl.mem seen (level, epoch, slot));
          Hashtbl.replace seen (level, epoch, slot) ()
      | PS.Rebuild _ -> ())
    (PS.physical_trace s)

let test_store_pattern_independent_shape () =
  (* a scan and a single hammered page of the same length give
     structurally identical host-visible traces *)
  let mk () = PS.create ~key (make_file ~pages:40 ~page_size:32 ()) in
  let s1 = mk () and s2 = mk () in
  for i = 0 to 59 do
    ignore (PS.read s1 (i mod 40));
    ignore (PS.read s2 0)
  done;
  Alcotest.(check bool) "same shape" true
    (pyramid_shape (PS.physical_trace s1) = pyramid_shape (PS.physical_trace s2));
  Alcotest.(check int) "same slot touches" (PS.slot_touches s1) (PS.slot_touches s2)

let test_store_tamper_detection () =
  (* honest reads pass; a page the host alters behind the store and
     re-checksums is caught by the keyed tag check *)
  let f = make_file ~pages:20 ~page_size:64 () in
  let server = Server.create ~mode:`Pyramid ~cost:small_cost ~key [ f ] in
  let s = start server in
  ignore (fetch s ~file:"data" ~page:0);
  let module F = Psp_fault.Fault in
  F.arm "pir.fetch.tamper" (F.Hits [ 1 ]);
  Fun.protect ~finally:F.reset (fun () ->
      match fetch s ~file:"data" ~page:7 with
      | exception Server.Tampered { file = "data"; page = 7 } -> ()
      | _ -> Alcotest.fail "expected Tampered")

let test_pyramid_bounds () =
  let s = PS.create ~key (make_file ~pages:4 ~page_size:32 ()) in
  Alcotest.check_raises "read oob" (Invalid_argument "Pyramid_store.read: page out of range")
    (fun () -> ignore (PS.read s 4));
  Alcotest.check_raises "fetch_many oob"
    (Invalid_argument "Pyramid_store.fetch_many: page out of range") (fun () ->
      ignore (PS.fetch_many s [| 0; -1 |]))

let test_pyramid_key_changes_slots () =
  let f = make_file ~pages:30 ~page_size:32 () in
  let probe key =
    let s = PS.create ~key f in
    List.iter (fun i -> ignore (PS.read s i)) [ 0; 1; 2 ];
    List.filter_map
      (function PS.Slot { slot; _ } -> Some slot | PS.Rebuild _ -> None)
      (PS.physical_trace s)
  in
  Alcotest.(check bool) "different keys -> different slots" true
    (probe key <> probe (Psp_crypto.Sha256.digest_string "other"))

let test_pyramid_rebuild_cadence () =
  (* the cache flushes — a host-visible rebuild — after every
     cache_capacity reads, and at no other time *)
  let s = PS.create ~key (make_file ~pages:40 ~page_size:32 ()) in
  let cap = PS.cache_capacity s in
  let rebuilds () =
    List.length (List.filter (function PS.Rebuild _ -> true | _ -> false) (PS.physical_trace s))
  in
  for q = 1 to 5 * cap do
    let before = rebuilds () in
    ignore (PS.read s (q mod 3));
    Alcotest.(check bool)
      (Printf.sprintf "read %d rebuilds iff it fills the cache" q)
      (q mod cap = 0)
      (rebuilds () > before)
  done

let pyramid_random_sequences =
  (* over random logical access sequences: the store stays correct and
     its host-visible slots stay distinct within each level's epoch *)
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:25 ~name:"oram correct under random sequences"
       QCheck2.Gen.(
         let* pages = int_range 5 40 in
         let* len = int_range 1 80 in
         let* seed = int_range 0 10_000 in
         return (pages, len, seed))
       (fun (pages, len, seed) ->
         let s = PS.create ~key (make_file ~pages ~page_size:32 ()) in
         let rng = Psp_util.Rng.create seed in
         let ok = ref true in
         for _ = 1 to len do
           let i = Psp_util.Rng.int rng pages in
           let got = Bytes.to_string (Bytes.sub (PS.read s i) 0 11) in
           if got <> Printf.sprintf "page-%06d" i then ok := false
         done;
         let seen = Hashtbl.create 64 in
         List.iter
           (function
             | PS.Slot { level; epoch; slot } ->
                 if Hashtbl.mem seen (level, epoch, slot) then ok := false
                 else Hashtbl.replace seen (level, epoch, slot) ()
             | PS.Rebuild _ -> ())
           (PS.physical_trace s);
         !ok))

(* ------------------------------------------------------------------ *)
(* Server sessions *)

let test_server_fetch_accounting () =
  let f = make_file ~pages:10 ~page_size:64 () in
  let server = Server.create ~cost:small_cost ~key [ f ] in
  let s = start server in
  ignore (fetch s ~file:"data" ~page:3);
  Session.next_round s;
  ignore (fetch s ~file:"data" ~page:4);
  ignore (fetch s ~file:"data" ~page:4);
  let stats = finish s in
  Alcotest.(check int) "rounds" 2 stats.Session.rounds;
  Alcotest.(check (list (pair string int))) "fetch counts" [ ("data", 3) ]
    stats.Session.pir_fetches;
  let expected_pir = 3.0 *. CM.pir_fetch_seconds small_cost ~file_pages:10 in
  Alcotest.(check (float 1e-9)) "pir time" expected_pir stats.Session.pir_seconds;
  let expected_comm =
    (2.0 *. small_cost.CM.rtt) +. (3.0 *. CM.transfer_seconds small_cost ~bytes:64)
  in
  Alcotest.(check (float 1e-9)) "comm time" expected_comm stats.Session.comm_seconds

let test_server_trace_hides_pages () =
  let f = make_file ~pages:10 ~page_size:64 () in
  let server = Server.create ~cost:small_cost ~key [ f ] in
  let run pages =
    let s = start server in
    List.iter (fun p -> ignore (fetch s ~file:"data" ~page:p)) pages;
    (finish s).Session.trace
  in
  (* different page numbers, same trace *)
  Alcotest.(check bool) "same view" true (Trace.equal (run [ 1; 2; 3 ]) (run [ 9; 9; 0 ]))

(* the oblivious mode ([`Pyramid], what [pspc --oblivious] selects)
   serves correct pages with the simulated mode's trace and accounted
   costs *)
let test_server_oblivious_mode () =
  let f = make_file ~pages:12 ~page_size:64 () in
  let run mode =
    let s = start (Server.create ~mode ~cost:small_cost ~key [ f ]) in
    for i = 0 to 11 do
      let got = fetch s ~file:"data" ~page:i in
      Alcotest.(check string) "oblivious read correct" (Printf.sprintf "page-%06d" i)
        (Bytes.to_string (Bytes.sub got 0 11))
    done;
    finish s
  in
  let sim = run `Simulated and obl = run `Pyramid in
  Alcotest.(check bool) "same trace" true (Trace.equal sim.Session.trace obl.Session.trace);
  Alcotest.(check (float 1e-12)) "same pir time" sim.Session.pir_seconds obl.Session.pir_seconds;
  Alcotest.(check (float 1e-12)) "same comm time" sim.Session.comm_seconds
    obl.Session.comm_seconds

(* a `Pyramid server keeps no host-visible event log across passes: its
   stores' traces would otherwise grow by one event per slot touch for
   the life of the process *)
let test_server_pyramid_retains_no_events () =
  let f = make_file ~pages:20 ~page_size:64 () in
  let server = Server.create ~mode:`Pyramid ~cost:small_cost ~key [ f ] in
  Alcotest.(check int) "none after create" 0 (Server.retained_physical_events server);
  let s = Session.start server ~width:2 in
  for i = 0 to 9 do
    ignore (Session.fetch s ~file:"data" ~pages:[| i; 19 - i |]);
    Alcotest.(check int) "none after a pass" 0 (Server.retained_physical_events server)
  done;
  Alcotest.(check bool) "the passes touched slots" true
    (Server.executed_slot_touches server > 0)

(* Rebuild work is counted per flush, not per page: over a 19-page file
   (level 1: 12 + 4 slots, level 2: 19 + 16) the first 16 reads flush
   four times, rebuilding level 1 (16 slots) at each and level 2 (35) at
   the fourth, 99 slots whichever pages were read.  The initial build is
   not counted, and width-4 passes rewrite what 16 single reads do. *)
let test_server_rewritten_slots () =
  let rewritten pages ~width =
    let server =
      Server.create ~mode:`Pyramid ~cost:small_cost ~key
        [ make_file ~pages:19 ~page_size:64 () ]
    in
    Alcotest.(check int) "none after create" 0 (Server.executed_rewritten_slots server);
    let s = Session.start server ~width in
    for q = 0 to (16 / width) - 1 do
      let batch = Array.init width (fun m -> pages ((q * width) + m)) in
      ignore (Session.fetch s ~file:"data" ~pages:batch)
    done;
    Server.executed_rewritten_slots server
  in
  Alcotest.(check int) "distinct pages" 99 (rewritten (fun i -> i) ~width:1);
  Alcotest.(check int) "one page" 99 (rewritten (fun _ -> 7) ~width:1);
  Alcotest.(check int) "width 4" 99 (rewritten (fun i -> 18 - i) ~width:4);
  let simulated = Server.create ~cost:small_cost ~key [ make_file ~pages:19 ~page_size:64 () ] in
  Alcotest.(check int) "simulated mode" 0 (Server.executed_rewritten_slots simulated)

let test_server_file_too_large () =
  let cost = CM.with_max_file small_cost ~bytes:(64 * 4) in
  let f = make_file ~pages:100 ~page_size:64 () in
  match Server.create ~cost ~key [ f ] with
  | exception Server.File_too_large { file; _ } -> Alcotest.(check string) "file" "data" file
  | _ -> Alcotest.fail "expected File_too_large"

let test_server_duplicate_names () =
  let a = make_file ~pages:1 ~page_size:64 () in
  let b = make_file ~pages:1 ~page_size:64 () in
  Alcotest.check_raises "dup" (Invalid_argument "Server.create: duplicate file \"data\"")
    (fun () -> ignore (Server.create ~cost:small_cost ~key [ a; b ]))

let test_server_download () =
  let f = make_file ~name:"header" ~pages:3 ~page_size:64 () in
  let server = Server.create ~cost:small_cost ~key [ f ] in
  let s = start server in
  let pages = Session.download s ~file:"header" in
  Alcotest.(check int) "all pages" 3 (Array.length pages);
  let stats = finish s in
  Alcotest.(check (float 1e-9)) "no pir" 0.0 stats.Session.pir_seconds;
  let expected = small_cost.CM.rtt +. CM.transfer_seconds small_cost ~bytes:(3 * 64) in
  Alcotest.(check (float 1e-9)) "download comm" expected stats.Session.comm_seconds

(* the header passes the same tag gate as a private fetch: a host that
   alters a page and recomputes its CRC is caught *)
let test_server_download_tamper () =
  let f = make_file ~name:"header" ~pages:3 ~page_size:64 () in
  let server = Server.create ~cost:small_cost ~key [ f ] in
  let module F = Psp_fault.Fault in
  F.arm "pir.download.tamper" (F.Hits [ 2 ]);
  Fun.protect ~finally:F.reset (fun () ->
      match Session.download (start server) ~file:"header" with
      | exception Server.Tampered { file = "header"; page = 1 } -> ()
      | _ -> Alcotest.fail "expected Tampered on the second header page")

(* The gate's order.  A fetched page passes one gate, its tag; the CRC
   only classifies a failure.  A corrupt page (the host still holds the
   published CRC) is [Page_corrupt] and a tampered one (the host
   recomputed the CRC) [Tampered].  The corruption hook is consulted
   first and the tamper hook only when it did not fire, so with both
   always on, a fetch is [Page_corrupt] and the tamper hook never
   fires.  Both serving modes, every case from a fresh session. *)
let gate_outcome ?(mode = `Simulated) arms ~width =
  let module F = Psp_fault.Fault in
  let server = Server.create ~mode ~cost:small_cost ~key [ make_file ~pages:20 ~page_size:64 () ] in
  let s = Session.start server ~width in
  List.iter (fun (point, sched) -> F.arm point sched) arms;
  Fun.protect ~finally:F.reset (fun () ->
      let outcome =
        match Session.fetch s ~file:"data" ~pages:(Array.init width (fun m -> 3 + m)) with
        | _ -> "served"
        | exception Server.Page_corrupt { file = "data"; page } -> Printf.sprintf "corrupt %d" page
        | exception Server.Tampered { file = "data"; page } -> Printf.sprintf "tampered %d" page
      in
      (outcome, F.fired "pir.fetch.corrupt", F.fired "pir.fetch.tamper"))

let test_gate_order () =
  let module F = Psp_fault.Fault in
  let check what arms ~width want =
    List.iter
      (fun mode ->
        Alcotest.(check (triple string int int)) what want (gate_outcome ~mode arms ~width))
      [ `Simulated; `Pyramid ]
  in
  check "both always: corrupt, tamper never fired"
    [ ("pir.fetch.corrupt", F.Always); ("pir.fetch.tamper", F.Always) ]
    ~width:1 ("corrupt 3", 1, 0);
  check "tamper alone" [ ("pir.fetch.tamper", F.Always) ] ~width:1 ("tampered 3", 0, 1);
  check "corrupt alone" [ ("pir.fetch.corrupt", F.Always) ] ~width:1 ("corrupt 3", 1, 0);
  check "no faults" [] ~width:1 ("served", 0, 0);
  (* in a batch the members pass the hooks in member order, so a member
     fails before any later member's hook is consulted *)
  check "batch: corrupt on the second member"
    [ ("pir.fetch.corrupt", F.Hits [ 2 ]); ("pir.fetch.tamper", F.Always) ]
    ~width:3 ("tampered 3", 0, 1);
  check "batch: corrupt on the first member, tamper armed"
    [ ("pir.fetch.corrupt", F.Hits [ 1 ]); ("pir.fetch.tamper", F.Always) ]
    ~width:3 ("corrupt 3", 1, 0);
  check "batch: tamper on the third member"
    [ ("pir.fetch.corrupt", F.Never); ("pir.fetch.tamper", F.Hits [ 3 ]) ]
    ~width:3 ("tampered 5", 0, 1)

let test_gate_download_tamper () =
  let module F = Psp_fault.Fault in
  let f = make_file ~name:"header" ~pages:3 ~page_size:64 () in
  let server = Server.create ~cost:small_cost ~key [ f ] in
  F.arm "pir.download.tamper" F.Always;
  Fun.protect ~finally:F.reset (fun () ->
      match Session.download (start server) ~file:"header" with
      | exception Server.Tampered { file = "header"; page = 0 } ->
          Alcotest.(check int) "one tamper hit" 1 (F.fired "pir.download.tamper")
      | exception Server.Page_corrupt _ -> Alcotest.fail "tampered header classified as corrupt"
      | _ -> Alcotest.fail "expected Tampered on the first header page")

(* One batch session, one account: a header download, rounds, fetches
   and a retry charged to a width-k session must leave every member with
   exactly the Cost_model sums, bit for bit. *)
let batch_files () =
  [ make_file ~name:"header" ~pages:3 ~page_size:64 ();
    make_file ~name:"data" ~pages:10 ~page_size:64 () ]

let batch_backoff = 0.1

let batch_scenario server ~width =
  let s = Session.start server ~width in
  ignore (Session.download s ~file:"header");
  Session.next_round s;
  for j = 0 to 1 do
    ignore (Session.fetch s ~file:"data" ~pages:(Array.init width (fun i -> (i + j) mod 10)))
  done;
  Session.note_retry s ~backoff:batch_backoff;
  Session.next_round s;
  ignore (Session.fetch s ~file:"data" ~pages:(Array.make width 9));
  s

let test_server_one_account () =
  List.iter
    (fun k ->
      let server = Server.create ~cost:small_cost ~key (batch_files ()) in
      let s = batch_scenario server ~width:k in
      (* the same charges, in the same order, that one member accrues *)
      let rtt = small_cost.CM.rtt /. float_of_int k in
      let levels =
        CM.pyramid_levels ~cache_capacity:PS.default_cache_capacity ~file_pages:10
      in
      let pass =
        CM.pir_batch_fetch_seconds small_cost ~file_pages:10 ~levels ~batch:k
        /. float_of_int k
      in
      let page = CM.transfer_seconds small_cost ~bytes:64 in
      let comm =
        rtt +. CM.transfer_seconds small_cost ~bytes:(3 * 64) +. rtt +. page +. page
        +. batch_backoff +. rtt +. page
      in
      let pir = 0.0 +. pass +. pass +. pass in
      let trace = Trace.create () in
      List.iter (Trace.record trace)
        [ Trace.Plain_download { round = 1; file = "header"; pages = 3 };
          Trace.Pir_fetch { round = 2; file = "data" };
          Trace.Pir_fetch { round = 2; file = "data" };
          Trace.Pir_fetch { round = 3; file = "data" } ];
      let member = pir +. comm in
      let total = ref 0.0 in
      for _ = 1 to k do
        total := !total +. member
      done;
      let name what = Printf.sprintf "width %d: %s" k what in
      Alcotest.(check bool) (name "accounted = k-fold sum") true
        (Float.equal !total (Session.accounted_seconds s));
      let stats = Session.finish s in
      Alcotest.(check int) (name "one stats per member") k (Array.length stats);
      Array.iter
        (fun (st : Session.stats) ->
          Alcotest.(check bool) (name "pir seconds") true (Float.equal pir st.Session.pir_seconds);
          Alcotest.(check bool) (name "comm seconds") true
            (Float.equal comm st.Session.comm_seconds);
          Alcotest.(check bool) (name "recovery seconds") true
            (Float.equal batch_backoff st.Session.recovery_seconds);
          Alcotest.(check (list (pair string int))) (name "fetch counts") [ ("data", 3) ]
            st.Session.pir_fetches;
          Alcotest.(check int) (name "rounds") 3 st.Session.rounds;
          Alcotest.(check int) (name "retries") 1 st.Session.retries;
          Alcotest.(check bool) (name "trace") true (Trace.equal trace st.Session.trace))
        stats)
    [ 1; 3; 8 ];
  let server = Server.create ~cost:small_cost ~key (batch_files ()) in
  (match Session.start server ~width:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for width 0");
  match Session.fetch (Session.start server ~width:3) ~file:"data" ~pages:[| 1; 2 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for two pages in a width-3 session"

(* Telemetry counts members: a width-k session records k times what a
   width-1 session records, per pass and per round alike, while the
   per-pass batch counters stay per pass. *)
let test_server_member_telemetry () =
  let module Obs = Psp_obs.Obs in
  let snapshot width =
    Obs.reset ();
    let server = Server.create ~cost:small_cost ~key (batch_files ()) in
    ignore (Session.finish (batch_scenario server ~width));
    let count name = Obs.count (Obs.counter name) in
    let samples name = Obs.samples (Obs.histogram name) in
    let span_pages =
      match Obs.span_stats "pir_fetch_batch" with
      | Some a -> a.Obs.pages
      | None -> Alcotest.fail "no pir_fetch_batch span"
    in
    ( [ count "pir.sessions";
        count "pir.fetch.total";
        count "pir.fetch.pages.data";
        count "pir.rounds";
        count "pir.retries";
        count "pir.download.pages";
        samples "pir.session.pir_seconds";
        samples "pir.session.comm_seconds";
        span_pages ],
      [ count "pir.fetch.batches"; count "pir.batcher.batches" ] )
  in
  let per_member1, per_pass1 = snapshot 1 in
  Alcotest.(check (list int)) "width 1 counts" [ 1; 3; 3; 2; 1; 3; 1; 1; 3 ] per_member1;
  List.iter
    (fun k ->
      let per_member, per_pass = snapshot k in
      Alcotest.(check (list int))
        (Printf.sprintf "width %d: k times the width-1 counts" k)
        (List.map (( * ) k) per_member1)
        per_member;
      Alcotest.(check (list int))
        (Printf.sprintf "width %d: one count per pass" k)
        per_pass1 per_pass)
    [ 3; 8 ];
  Obs.reset ()

(* ------------------------------------------------------------------ *)
(* Trace *)

let test_trace_fingerprint_and_counts () =
  let t = Trace.create () in
  Trace.record t (Trace.Plain_download { round = 1; file = "header"; pages = 2 });
  Trace.record t (Trace.Pir_fetch { round = 2; file = "lookup" });
  Trace.record t (Trace.Pir_fetch { round = 3; file = "index" });
  Trace.record t (Trace.Pir_fetch { round = 3; file = "index" });
  Alcotest.(check int) "length" 4 (Trace.length t);
  Alcotest.(check (list (pair (pair int string) int))) "counts"
    [ ((2, "lookup"), 1); ((3, "index"), 2) ]
    (Trace.per_round_file_counts t);
  let t2 = Trace.create () in
  Trace.record t2 (Trace.Plain_download { round = 1; file = "header"; pages = 2 });
  Trace.record t2 (Trace.Pir_fetch { round = 2; file = "lookup" });
  Trace.record t2 (Trace.Pir_fetch { round = 3; file = "index" });
  Trace.record t2 (Trace.Pir_fetch { round = 3; file = "index" });
  Alcotest.(check string) "fingerprint equal" (Trace.fingerprint t) (Trace.fingerprint t2);
  Alcotest.(check bool) "equal" true (Trace.equal t t2);
  Trace.record t2 (Trace.Pir_fetch { round = 4; file = "data" });
  Alcotest.(check bool) "prefix not equal" false (Trace.equal t t2)

let () =
  Alcotest.run "pir"
    [ ( "cost_model",
        [ Alcotest.test_case "table 2" `Quick test_table2_constants;
          Alcotest.test_case "page op" `Quick test_page_op_cost;
          Alcotest.test_case "1s per GB" `Quick test_pir_1s_per_gb;
          Alcotest.test_case "monotone" `Quick test_pir_monotone;
          Alcotest.test_case "2.5GB cap" `Quick test_max_file_2_5gb;
          Alcotest.test_case "scp memory" `Quick test_scp_memory_needed;
          Alcotest.test_case "feistel tables fit scp" `Quick test_feistel_tables_fit_scp;
          Alcotest.test_case "pyramid level table" `Quick test_pyramid_level_table;
          Alcotest.test_case "with_max_file" `Quick test_with_max_file;
          Alcotest.test_case "transfer" `Quick test_transfer_time ] );
      ( "oblivious_store",
        [ Alcotest.test_case "reads correct" `Quick test_store_reads_correct;
          Alcotest.test_case "repeated reads" `Quick test_store_repeated_reads;
          Alcotest.test_case "no slot repeats" `Quick test_store_no_slot_repeats;
          Alcotest.test_case "pattern-independent shape" `Quick
            test_store_pattern_independent_shape;
          Alcotest.test_case "reshuffle cadence" `Quick test_pyramid_rebuild_cadence;
          Alcotest.test_case "key sensitivity" `Quick test_pyramid_key_changes_slots;
          Alcotest.test_case "tamper detection" `Quick test_store_tamper_detection;
          Alcotest.test_case "bounds" `Quick test_pyramid_bounds;
          pyramid_random_sequences ] );
      ( "pyramid_store",
        [ Alcotest.test_case "reads correct" `Quick test_pyramid_reads_correct;
          Alcotest.test_case "pattern independent" `Quick test_pyramid_pattern_independent;
          Alcotest.test_case "no slot repeats" `Quick test_pyramid_no_slot_repeats;
          Alcotest.test_case "one touch per level" `Quick test_pyramid_one_touch_per_level;
          Alcotest.test_case "golden trace" `Quick test_pyramid_golden_trace;
          Alcotest.test_case "golden host bytes" `Quick test_pyramid_golden_host_bytes;
          Alcotest.test_case "layout stress" `Quick test_pyramid_layout_stress;
          Alcotest.test_case "server mode" `Quick test_pyramid_server_mode ] );
      ( "server",
        [ Alcotest.test_case "fetch accounting" `Quick test_server_fetch_accounting;
          Alcotest.test_case "trace hides pages" `Quick test_server_trace_hides_pages;
          Alcotest.test_case "oblivious mode" `Quick test_server_oblivious_mode;
          Alcotest.test_case "pyramid retains no events" `Quick
            test_server_pyramid_retains_no_events;
          Alcotest.test_case "rewritten slots" `Quick test_server_rewritten_slots;
          Alcotest.test_case "file too large" `Quick test_server_file_too_large;
          Alcotest.test_case "duplicate names" `Quick test_server_duplicate_names;
          Alcotest.test_case "download" `Quick test_server_download;
          Alcotest.test_case "download tamper" `Quick test_server_download_tamper;
          Alcotest.test_case "one account per batch" `Quick test_server_one_account;
          Alcotest.test_case "telemetry per member" `Quick test_server_member_telemetry;
          Alcotest.test_case "gate order" `Quick test_gate_order;
          Alcotest.test_case "gate: download tamper" `Quick test_gate_download_tamper ] );
      ( "trace",
        [ Alcotest.test_case "fingerprint/counts" `Quick test_trace_fingerprint_and_counts ] ) ]
