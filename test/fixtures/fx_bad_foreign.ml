(* Externals: foreign code the analysis cannot see.  In whole-program
   mode each one needs a justified [@@leak_ok]; per-module mode does not
   look at them.  Both symbols are real runtime primitives, so the
   fixture library still links. *)

external unchecked_blit : bytes -> int -> bytes -> int -> int -> unit = "caml_blit_bytes" [@@noalloc] (* EXPECT: foreign-primitive *)

external empty_reason : bytes -> int = "%bytes_length" [@@leak_ok ""] (* EXPECT: foreign-primitive *) (* EXPECT: missing-justification *)

external justified_blit : bytes -> int -> bytes -> int -> int -> unit = "caml_blit_bytes"
  [@@noalloc] [@@leak_ok "copies a public number of bytes between public offsets"]

let copy_prefix src dst n =
  justified_blit src 0 dst 0 n;
  unchecked_blit src 0 dst 0 (min n (empty_reason src))
