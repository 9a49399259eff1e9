(* Secret-dependent lengths and encodings: sizes are server-visible. *)

let alloc_secret_bytes (n [@secret]) =
  Bytes.create n (* EXPECT: secret-length *)
  [@@oblivious]

let alloc_secret_array (n [@secret]) =
  Array.make n 0 (* EXPECT: secret-length *)
  [@@oblivious]

let list_of_secret_length (n [@secret]) =
  List.init n (fun i -> i) (* EXPECT: secret-length *)
  [@@oblivious]

(* A varint's width is a function of its value: encoding a secret leaks
   its magnitude.  The encoder's own summary reports its branch on it. *)
let varint_of_secret (x [@secret]) =
  let w = Psp_util.Byte_io.Writer.create ~capacity:10 () in
  Psp_util.Byte_io.Writer.varint w x; (* EXPECT: secret-branch *)
  Psp_util.Byte_io.Writer.contents w
  [@@oblivious]

(* Taint reaches the length through intermediate arithmetic. *)
let alloc_derived_length (n [@secret]) =
  let padded = ((n + 7) / 8) * 8 in
  Bytes.create padded (* EXPECT: secret-length *)
  [@@oblivious]

(* A secret embedded in an exception message escapes the trace. *)
let raise_with_secret (page [@secret]) =
  if page < 0 then (* EXPECT: secret-branch *)
    failwith (Printf.sprintf "bad page %d" page) (* EXPECT: secret-exception *)
  [@@oblivious]
