(* Unit and property tests for the utility substrate. *)

open Psp_util

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_int_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_uniformity () =
  let rng = Rng.create 11 in
  let counts = Array.make 8 0 in
  let n = 80_000 in
  for _ = 1 to n do
    let v = Rng.int rng 8 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c ->
      let expected = n / 8 in
      Alcotest.(check bool) "within 10%" true (abs (c - expected) < expected / 10))
    counts

let test_rng_float_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 2.5)
  done

let test_rng_permutation () =
  let rng = Rng.create 5 in
  let p = Rng.permutation rng 100 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check bool) "is permutation" true (sorted = Array.init 100 (fun i -> i))

let test_rng_shuffle_preserves_elements () =
  let rng = Rng.create 9 in
  let a = Array.init 50 (fun i -> i * 3) in
  let b = Array.copy a in
  Rng.shuffle rng b;
  Array.sort compare b;
  Alcotest.(check bool) "multiset preserved" true (a = b)

let test_rng_gaussian_moments () =
  let rng = Rng.create 13 in
  let n = 50_000 in
  let samples = Array.init n (fun _ -> Rng.gaussian rng ~mean:5.0 ~stddev:2.0) in
  let m = Stats.mean samples in
  let s = Stats.stddev samples in
  Alcotest.(check bool) "mean ~5" true (Float.abs (m -. 5.0) < 0.05);
  Alcotest.(check bool) "stddev ~2" true (Float.abs (s -. 2.0) < 0.05)

let test_rng_pick_empty () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "empty pick" (Invalid_argument "Rng.pick: empty array") (fun () ->
      ignore (Rng.pick rng [||]))

(* ------------------------------------------------------------------ *)
(* Sorted_ints, against list references *)

let ints_gen = QCheck2.Gen.(list_size (int_range 0 40) (int_range (-20) 60))
let set_of l = List.sort_uniq compare l

let sorted_ints_ops =
  qtest "set operations match list references" QCheck2.Gen.(pair ints_gen ints_gen)
    (fun (a, b) ->
      let sa = Array.of_list (set_of a) and sb = Array.of_list (set_of b) in
      Array.to_list (Sorted_ints.sort_dedup (Array.of_list a)) = set_of a
      && Array.to_list (Sorted_ints.union sa sb) = set_of (a @ b)
      && Array.to_list (Sorted_ints.diff sa sb) = List.filter (fun x -> not (List.mem x b)) (set_of a)
      && Sorted_ints.inter_count sa sb = List.length (List.filter (fun x -> List.mem x b) (set_of a)))

let test_sort_dedup_aliasing () =
  let sorted = [| 1; 4; 9 |] in
  Alcotest.(check bool) "strictly increasing input returned itself" true
    (Sorted_ints.sort_dedup sorted == sorted);
  let unsorted = [| 9; 1; 4; 1 |] in
  let out = Sorted_ints.sort_dedup unsorted in
  Alcotest.(check (array int)) "sorted, once each" [| 1; 4; 9 |] out;
  Alcotest.(check (array int)) "input untouched" [| 9; 1; 4; 1 |] unsorted;
  let dup = [| 2; 2 |] in
  Alcotest.(check bool) "a repeat is not strictly increasing" false
    (Sorted_ints.sort_dedup dup == dup)

(* ------------------------------------------------------------------ *)
(* Min_heap *)

let drain h =
  let rec go acc =
    if Min_heap.is_empty h then List.rev acc
    else
      let p = Min_heap.min_priority h in
      go ((p, Min_heap.pop_min h) :: acc)
  in
  go []

let heap_sorts =
  qtest "min_heap drains in sorted order"
    QCheck2.Gen.(list (pair (float_bound_inclusive 1000.0) small_nat))
    (fun entries ->
      let heap = Min_heap.create ~capacity:1 () in
      List.iter (fun (priority, payload) -> Min_heap.push heap ~priority payload) entries;
      let drained = drain heap in
      let priorities = List.map fst drained in
      List.sort compare priorities = priorities
      && List.length drained = List.length entries)

(* Every search's tie breaks depend on the order equal priorities pop
   in, so the heap must pop exactly what the swapping heap it replaced
   ([Ref_min_heap], kept verbatim) pops: random interleaved pushes and
   pops, priorities from {1, 2, 3} so ties are everywhere, both heaps
   growing from capacity 1. *)
let heap_tie_order =
  qtest ~count:500 "min_heap pops = swapping reference"
    QCheck2.Gen.(list (option (pair (int_range 1 3) small_nat)))
    (fun ops ->
      let h = Min_heap.create ~capacity:1 () and r = Ref_min_heap.create ~capacity:1 () in
      let pop_both () =
        let p = Min_heap.min_priority h and rp = Ref_min_heap.min_priority r in
        (p, Min_heap.pop_min h) = (rp, Ref_min_heap.pop_min r)
      in
      List.for_all
        (function
          | Some (priority, payload) ->
              let priority = float_of_int priority in
              Min_heap.push h ~priority payload;
              Ref_min_heap.push r ~priority payload;
              true
          | None -> Min_heap.is_empty h = Ref_min_heap.is_empty r && (Min_heap.is_empty h || pop_both ()))
        ops
      && drain h = Ref_min_heap.to_sorted_list r)

let test_heap_basics () =
  let h = Min_heap.create () in
  Alcotest.(check bool) "empty" true (Min_heap.is_empty h);
  Min_heap.push h ~priority:3.0 30;
  Min_heap.push h ~priority:1.0 10;
  Min_heap.push h ~priority:2.0 20;
  Alcotest.(check (float 0.0)) "min priority" 1.0 (Min_heap.min_priority h);
  Alcotest.(check (float 0.0)) "min kept" 1.0 (Min_heap.min_priority h);
  let pop () =
    let p = Min_heap.min_priority h in
    (p, Min_heap.pop_min h)
  in
  Alcotest.(check (pair (float 0.0) int)) "pop1" (1.0, 10) (pop ());
  Alcotest.(check (pair (float 0.0) int)) "pop2" (2.0, 20) (pop ());
  Alcotest.(check (pair (float 0.0) int)) "pop3" (3.0, 30) (pop ());
  Alcotest.(check bool) "drained" true (Min_heap.is_empty h);
  Alcotest.check_raises "pop empty" (Invalid_argument "Min_heap.pop_min: empty heap")
    (fun () -> ignore (Min_heap.pop_min h));
  Alcotest.check_raises "min of empty" (Invalid_argument "Min_heap.min_priority: empty heap")
    (fun () -> ignore (Min_heap.min_priority h))

let test_heap_duplicates () =
  let h = Min_heap.create () in
  for i = 1 to 50 do
    Min_heap.push h ~priority:1.0 i
  done;
  (* equal priorities pop every payload exactly once *)
  let seen = List.init 10 (fun _ -> Min_heap.pop_min h) in
  Alcotest.(check int) "distinct" 10 (List.length (List.sort_uniq compare seen));
  let rest = drain h in
  Alcotest.(check int) "rest kept" 40 (List.length rest);
  Alcotest.(check (list int)) "all 50 once" (List.init 50 (fun i -> i + 1))
    (List.sort compare (seen @ List.map snd rest));
  for i = 1 to 5 do
    Min_heap.push h ~priority:1.0 i
  done;
  Min_heap.clear h;
  Alcotest.(check bool) "cleared" true (Min_heap.is_empty h);
  Min_heap.push h ~priority:2.0 7;
  Alcotest.(check (pair (float 0.0) int)) "usable after clear" (2.0, 7) (List.hd (drain h))

(* ------------------------------------------------------------------ *)
(* Dyn_array *)

let test_dyn_array_push_get () =
  let d = Dyn_array.create () in
  for i = 0 to 999 do
    Dyn_array.push d (i * 2)
  done;
  Alcotest.(check int) "length" 1000 (Dyn_array.length d);
  Alcotest.(check int) "get 0" 0 (Dyn_array.get d 0);
  Alcotest.(check int) "get 999" 1998 (Dyn_array.get d 999);
  Dyn_array.set d 10 (-5);
  Alcotest.(check int) "set" (-5) (Dyn_array.get d 10)

let test_dyn_array_bounds () =
  let d = Dyn_array.of_array [| 1; 2; 3 |] in
  Alcotest.check_raises "oob" (Invalid_argument "Dyn_array: index out of range") (fun () ->
      ignore (Dyn_array.get d 3))

let test_dyn_array_pop () =
  let d = Dyn_array.of_array [| 1; 2 |] in
  Alcotest.(check (option int)) "pop" (Some 2) (Dyn_array.pop d);
  Alcotest.(check (option int)) "last" (Some 1) (Dyn_array.last d);
  Alcotest.(check (option int)) "pop" (Some 1) (Dyn_array.pop d);
  Alcotest.(check (option int)) "pop empty" None (Dyn_array.pop d)

let dyn_array_roundtrip =
  qtest "dyn_array to_array/of_array roundtrip" QCheck2.Gen.(list small_int) (fun l ->
      let a = Array.of_list l in
      Dyn_array.to_array (Dyn_array.of_array a) = a)

let test_dyn_array_sort_fold () =
  let d = Dyn_array.of_array [| 3; 1; 2 |] in
  Dyn_array.sort compare d;
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3 ] (Dyn_array.to_list d);
  Alcotest.(check int) "fold" 6 (Dyn_array.fold_left ( + ) 0 d);
  Alcotest.(check bool) "exists" true (Dyn_array.exists (fun x -> x = 2) d);
  Alcotest.(check (list int)) "map" [ 2; 4; 6 ] (Dyn_array.to_list (Dyn_array.map (fun x -> 2 * x) d))

(* ------------------------------------------------------------------ *)
(* Bitset *)

let test_bitset_basics () =
  let b = Bitset.create 100 in
  Alcotest.(check int) "cardinal 0" 0 (Bitset.cardinal b);
  Bitset.set b 0;
  Bitset.set b 63;
  Bitset.set b 64;
  Bitset.set b 99;
  Alcotest.(check int) "cardinal" 4 (Bitset.cardinal b);
  Alcotest.(check bool) "mem 63" true (Bitset.mem b 63);
  Alcotest.(check bool) "mem 62" false (Bitset.mem b 62);
  Bitset.unset b 63;
  Alcotest.(check bool) "unset" false (Bitset.mem b 63);
  Alcotest.(check (list int)) "to_list" [ 0; 64; 99 ] (Bitset.to_list b)

let bitset_bytes_roundtrip =
  qtest "bitset byte serialization roundtrip"
    QCheck2.Gen.(pair (int_range 1 200) (list small_nat))
    (fun (n, items) ->
      let items = List.filter (fun i -> i < n) items in
      let b = Bitset.of_list n items in
      Bitset.equal b (Bitset.of_bytes n (Bitset.to_bytes b)))

let test_bitset_union_inter () =
  let a = Bitset.of_list 10 [ 1; 3; 5 ] in
  let b = Bitset.of_list 10 [ 3; 4 ] in
  let u = Bitset.copy a in
  Bitset.union_into ~dst:u b;
  Alcotest.(check (list int)) "union" [ 1; 3; 4; 5 ] (Bitset.to_list u);
  let i = Bitset.copy a in
  Bitset.inter_into ~dst:i b;
  Alcotest.(check (list int)) "inter" [ 3 ] (Bitset.to_list i)

let test_bitset_mismatch () =
  let a = Bitset.create 4 and b = Bitset.create 5 in
  Alcotest.check_raises "mismatch" (Invalid_argument "Bitset.union_into: capacity mismatch")
    (fun () -> Bitset.union_into ~dst:a b)

(* ------------------------------------------------------------------ *)
(* Byte_io *)

let test_byte_io_scalars () =
  let w = Byte_io.Writer.create () in
  Byte_io.Writer.u8 w 255;
  Byte_io.Writer.u16 w 65535;
  Byte_io.Writer.u32 w 0xDEADBEEF;
  Byte_io.Writer.i64 w (-1L);
  Byte_io.Writer.float64 w 3.25;
  Byte_io.Writer.string w "hello";
  let r = Byte_io.Reader.of_bytes (Byte_io.Writer.contents w) in
  Alcotest.(check int) "u8" 255 (Byte_io.Reader.u8 r);
  Alcotest.(check int) "u16" 65535 (Byte_io.Reader.u16 r);
  Alcotest.(check int) "u32" 0xDEADBEEF (Byte_io.Reader.u32 r);
  Alcotest.(check int64) "i64" (-1L) (Byte_io.Reader.i64 r);
  Alcotest.(check (float 0.0)) "f64" 3.25 (Byte_io.Reader.float64 r);
  Alcotest.(check string) "string" "hello" (Byte_io.Reader.string r)

let varint_roundtrip =
  qtest "varint roundtrip" QCheck2.Gen.(int_bound 1_000_000_000) (fun v ->
      let w = Byte_io.Writer.create () in
      Byte_io.Writer.varint w v;
      let encoded = Byte_io.Writer.contents w in
      Bytes.length encoded = Byte_io.varint_size v
      && Byte_io.Reader.varint (Byte_io.Reader.of_bytes encoded) = v)

let test_byte_io_underflow () =
  let r = Byte_io.Reader.of_bytes (Bytes.of_string "a") in
  ignore (Byte_io.Reader.u8 r);
  Alcotest.check_raises "underflow" Byte_io.Reader.Underflow (fun () ->
      ignore (Byte_io.Reader.u8 r))

let test_byte_io_negative_varint () =
  let w = Byte_io.Writer.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Writer.varint: negative") (fun () ->
      Byte_io.Writer.varint w (-1))

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_basics () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean xs);
  Alcotest.(check (float 1e-9)) "total" 10.0 (Stats.total xs);
  let lo, hi = Stats.min_max xs in
  Alcotest.(check (float 0.0)) "min" 1.0 lo;
  Alcotest.(check (float 0.0)) "max" 4.0 hi;
  Alcotest.(check (float 1e-9)) "p50" 2.0 (Stats.percentile xs 50.0);
  Alcotest.(check (float 1e-9)) "p100" 4.0 (Stats.percentile xs 100.0)

let test_stats_histogram () =
  let xs = [| 0.1; 0.9; 1.5; 2.5; 9.9; -3.0; 42.0 |] in
  let h = Stats.histogram ~buckets:10 ~lo:0.0 ~hi:10.0 xs in
  Alcotest.(check int) "bucket 0 (incl clamped low)" 3 h.(0);
  Alcotest.(check int) "bucket 9 (incl clamped high)" 2 h.(9);
  Alcotest.(check int) "total" 7 (Array.fold_left ( + ) 0 h)

let test_stats_empty () =
  Alcotest.(check (float 0.0)) "mean empty" 0.0 (Stats.mean [||]);
  Alcotest.check_raises "min_max empty" (Invalid_argument "Stats.min_max: empty") (fun () ->
      ignore (Stats.min_max [||]))

(* ------------------------------------------------------------------ *)
(* Crc32 *)

(* The byte-at-a-time loop the slice-by-8 tables replaced. *)
let crc32_bytewise crc buf ~pos ~len =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let c = ref (crc lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Char.code (Bytes.get buf i)) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let test_crc32_vectors () =
  Alcotest.(check int) "empty" 0 (Crc32.string "");
  Alcotest.(check int) "check value" 0xCBF43926 (Crc32.string "123456789");
  Alcotest.(check int) "fox" 0x414FA339
    (Crc32.string "The quick brown fox jumps over the lazy dog");
  Alcotest.check_raises "slice out of range"
    (Invalid_argument "Crc32.update: slice out of range") (fun () ->
      ignore (Crc32.sub (Bytes.create 4) ~pos:2 ~len:3))

let crc32_matches_bytewise =
  qtest ~count:500 "crc32 slice-by-8 = byte-wise"
    QCheck2.Gen.(
      let* s = string_size (int_bound 300) in
      let n = String.length s in
      let* pos = int_bound n in
      let* len = int_bound (n - pos) in
      let* seed = int_bound 0xFFFFFFFF in
      return (s, pos, len, seed))
    (fun (s, pos, len, seed) ->
      let b = Bytes.of_string s in
      Crc32.update seed b ~pos ~len = crc32_bytewise seed b ~pos ~len
      && Crc32.sub b ~pos ~len = crc32_bytewise 0 b ~pos ~len)

let () =
  Alcotest.run "util"
    [ ( "rng",
        [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int uniformity" `Slow test_rng_int_uniformity;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "permutation" `Quick test_rng_permutation;
          Alcotest.test_case "shuffle preserves" `Quick test_rng_shuffle_preserves_elements;
          Alcotest.test_case "gaussian moments" `Slow test_rng_gaussian_moments;
          Alcotest.test_case "pick empty" `Quick test_rng_pick_empty ] );
      ( "sorted",
        [ sorted_ints_ops; Alcotest.test_case "aliasing" `Quick test_sort_dedup_aliasing ] );
      ( "min_heap",
        [ heap_sorts;
          heap_tie_order;
          Alcotest.test_case "basics" `Quick test_heap_basics;
          Alcotest.test_case "duplicates" `Quick test_heap_duplicates ] );
      ( "dyn_array",
        [ Alcotest.test_case "push/get" `Quick test_dyn_array_push_get;
          Alcotest.test_case "bounds" `Quick test_dyn_array_bounds;
          Alcotest.test_case "pop" `Quick test_dyn_array_pop;
          dyn_array_roundtrip;
          Alcotest.test_case "sort/fold/map" `Quick test_dyn_array_sort_fold ] );
      ( "bitset",
        [ Alcotest.test_case "basics" `Quick test_bitset_basics;
          bitset_bytes_roundtrip;
          Alcotest.test_case "union/inter" `Quick test_bitset_union_inter;
          Alcotest.test_case "mismatch" `Quick test_bitset_mismatch ] );
      ( "byte_io",
        [ Alcotest.test_case "scalars" `Quick test_byte_io_scalars;
          varint_roundtrip;
          Alcotest.test_case "underflow" `Quick test_byte_io_underflow;
          Alcotest.test_case "negative varint" `Quick test_byte_io_negative_varint ] );
      ( "crc32",
        [ Alcotest.test_case "vectors" `Quick test_crc32_vectors; crc32_matches_bytewise ] );
      ( "stats",
        [ Alcotest.test_case "basics" `Quick test_stats_basics;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
          Alcotest.test_case "empty" `Quick test_stats_empty ] ) ]
