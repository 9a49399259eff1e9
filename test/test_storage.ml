(* Storage engine: page files — padding, bounds, checksums, atomic
   save and load, and typed rejection of corrupt files.  The §5.3
   no-straddle record placement is tested on Fi_builder (test_index). *)

module PF = Psp_storage.Page_file

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Page_file *)

let test_page_file_basics () =
  let f = PF.create ~name:"t" ~page_size:64 in
  Alcotest.(check string) "name" "t" (PF.name f);
  Alcotest.(check int) "page size" 64 (PF.page_size f);
  Alcotest.(check int) "empty" 0 (PF.page_count f);
  let p0 = PF.append f (Bytes.of_string "hello") in
  let p1 = PF.append_blank f in
  Alcotest.(check int) "page 0" 0 p0;
  Alcotest.(check int) "page 1" 1 p1;
  Alcotest.(check int) "count" 2 (PF.page_count f);
  Alcotest.(check int) "size" 128 (PF.size_bytes f)

let test_page_file_padding () =
  let f = PF.create ~name:"t" ~page_size:8 in
  ignore (PF.append f (Bytes.of_string "abc"));
  let page = PF.read f 0 in
  Alcotest.(check int) "padded length" 8 (Bytes.length page);
  Alcotest.(check string) "payload preserved" "abc" (Bytes.to_string (PF.payload f 0));
  Alcotest.(check int) "payload length" 3 (PF.payload_length f 0);
  Alcotest.(check char) "padding zero" '\000' (Bytes.get page 7)

let test_page_file_bounds () =
  let f = PF.create ~name:"t" ~page_size:8 in
  Alcotest.check_raises "oversized"
    (Invalid_argument "Page_file.append(t): payload 9 exceeds page size 8") (fun () ->
      ignore (PF.append f (Bytes.make 9 'x')));
  (* the message is redacted to the file's public page range: on the PIR
     hot path the requested index is secret (see psplint's secret-exception
     rule), so it must never appear in the exception *)
  Alcotest.check_raises "read oob"
    (Invalid_argument "Page_file.read(t): page out of range [0,0)") (fun () ->
      ignore (PF.read f 0))

let test_page_file_utilization () =
  let f = PF.create ~name:"t" ~page_size:10 in
  ignore (PF.append f (Bytes.make 10 'x'));
  ignore (PF.append f (Bytes.make 5 'x'));
  Alcotest.(check (float 1e-9)) "utilization" 0.75 (PF.utilization f);
  Alcotest.(check (float 0.0)) "empty file utilization" 0.0
    (PF.utilization (PF.create ~name:"e" ~page_size:10))

let test_page_file_iter () =
  let f = PF.create ~name:"t" ~page_size:4 in
  ignore (PF.append f (Bytes.of_string "a"));
  ignore (PF.append f (Bytes.of_string "b"));
  let seen = ref [] in
  PF.iter_pages f (fun i page -> seen := (i, Bytes.get page 0) :: !seen);
  Alcotest.(check (list (pair int char))) "iterated" [ (1, 'b'); (0, 'a') ] !seen

let test_page_file_save_load () =
  let f = PF.create ~name:"persisted" ~page_size:32 in
  ignore (PF.append f (Bytes.of_string "alpha"));
  ignore (PF.append f (Bytes.make 32 'z'));
  ignore (PF.append_blank f);
  let path = Filename.temp_file "psp" ".pages" in
  PF.save f ~path;
  let g = PF.load_exn ~path in
  Sys.remove path;
  Alcotest.(check string) "name" "persisted" (PF.name g);
  Alcotest.(check int) "page size" 32 (PF.page_size g);
  Alcotest.(check int) "pages" 3 (PF.page_count g);
  Alcotest.(check string) "payload 0" "alpha" (Bytes.to_string (PF.payload g 0));
  Alcotest.(check int) "payload 1 full" 32 (PF.payload_length g 1);
  Alcotest.(check int) "payload 2 blank" 0 (PF.payload_length g 2);
  Alcotest.(check (float 1e-9)) "utilization preserved" (PF.utilization f) (PF.utilization g)

let test_page_file_load_garbage () =
  let path = Filename.temp_file "psp" ".pages" in
  let oc = open_out path in
  output_string oc "not a page file";
  close_out oc;
  (match PF.load ~path with
  | Error (PF.Corrupt { path = p; _ }) -> Alcotest.(check string) "path reported" path p
  | Ok _ -> Alcotest.fail "expected Corrupt error");
  (match PF.load_exn ~path with
  | exception PF.Error (PF.Corrupt _) -> ()
  | _ -> Alcotest.fail "expected Error exception");
  Sys.remove path

(* Fuzz the on-disk format: truncations and bit flips at arbitrary
   offsets must always surface as the typed [Corrupt] error — never as
   an unhelpful crash, and never as a silently wrong file. *)
let load_corruption_fuzz =
  qtest ~count:300 "load detects any truncation or bit flip"
    QCheck2.Gen.(
      let* page_size = int_range 4 48 in
      let* payloads = list_size (int_range 0 12) (int_range 0 page_size) in
      let* seed = int_range 0 10_000 in
      let* flip = bool in
      return (page_size, payloads, seed, flip))
    (fun (page_size, payloads, seed, flip) ->
      let f = PF.create ~name:"fuzz" ~page_size in
      List.iteri (fun i n -> ignore (PF.append f (Bytes.make n (Char.chr (65 + (i mod 26)))))) payloads;
      let path = Filename.temp_file "psp" ".fuzz" in
      PF.save f ~path;
      let ic = open_in_bin path in
      let blob = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let rng = Psp_util.Rng.create seed in
      let len = String.length blob in
      let corrupted =
        if flip then begin
          let b = Bytes.of_string blob in
          let i = Psp_util.Rng.int rng len in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Psp_util.Rng.int rng 8)));
          Bytes.to_string b
        end
        else String.sub blob 0 (Psp_util.Rng.int rng len)
      in
      let oc = open_out_bin path in
      output_string oc corrupted;
      close_out oc;
      let verdict =
        match PF.load ~path with
        | Error (PF.Corrupt _) -> true
        | Ok _ -> false (* a corrupted file must never load cleanly *)
        | exception _ -> false (* nor crash with an untyped exception *)
      in
      Sys.remove path;
      verdict)

let test_page_file_checksums () =
  let f = PF.create ~name:"t" ~page_size:16 in
  ignore (PF.append f (Bytes.of_string "payload"));
  ignore (PF.append_blank f);
  let page = PF.read f 0 in
  Alcotest.(check bool) "good page verifies" true (PF.verify_page f 0 page);
  Bytes.set page 3 'X';
  Alcotest.(check bool) "tampered page rejected" false (PF.verify_page f 0 page);
  Alcotest.(check bool) "short buffer rejected" false (PF.verify_page f 1 (Bytes.make 3 '\000'));
  Alcotest.(check bool) "distinct pages, distinct crcs" true (PF.page_crc f 0 <> PF.page_crc f 1)

let test_page_file_atomic_save () =
  (* a save that faults must leave a previously saved good file intact *)
  let path = Filename.temp_file "psp" ".pages" in
  let f = PF.create ~name:"stable" ~page_size:16 in
  ignore (PF.append f (Bytes.of_string "original"));
  PF.save f ~path;
  let g = PF.create ~name:"doomed" ~page_size:16 in
  ignore (PF.append g (Bytes.of_string "replacement"));
  Psp_fault.Fault.arm "storage.page_file.save.transient" Psp_fault.Fault.Always;
  (match PF.save g ~path with
  | exception Psp_fault.Fault.Injected _ -> ()
  | () -> Alcotest.fail "expected injected save fault");
  Psp_fault.Fault.reset ();
  let h = PF.load_exn ~path in
  Alcotest.(check string) "old file survives" "stable" (PF.name h);
  Alcotest.(check string) "old payload survives" "original" (Bytes.to_string (PF.payload h 0));
  Sys.remove path

let test_page_file_torn_save_detected () =
  let path = Filename.temp_file "psp" ".pages" in
  let f = PF.create ~name:"torn" ~page_size:16 in
  for i = 0 to 5 do
    ignore (PF.append f (Bytes.make (i + 3) 'q'))
  done;
  Psp_fault.Fault.arm "storage.page_file.save.torn" Psp_fault.Fault.Always;
  PF.save f ~path;
  Psp_fault.Fault.reset ();
  (match PF.load ~path with
  | Error (PF.Corrupt _) -> ()
  | Ok _ -> Alcotest.fail "torn write loaded cleanly");
  Sys.remove path

let () =
  Alcotest.run "storage"
    [ ( "page_file",
        [ Alcotest.test_case "basics" `Quick test_page_file_basics;
          Alcotest.test_case "padding" `Quick test_page_file_padding;
          Alcotest.test_case "bounds" `Quick test_page_file_bounds;
          Alcotest.test_case "utilization" `Quick test_page_file_utilization;
          Alcotest.test_case "iteration" `Quick test_page_file_iter;
          Alcotest.test_case "save/load" `Quick test_page_file_save_load;
          Alcotest.test_case "load garbage" `Quick test_page_file_load_garbage;
          Alcotest.test_case "checksums" `Quick test_page_file_checksums;
          Alcotest.test_case "atomic save" `Quick test_page_file_atomic_save;
          Alcotest.test_case "torn save detected" `Quick test_page_file_torn_save_detected;
          load_corruption_fuzz ] ) ]
