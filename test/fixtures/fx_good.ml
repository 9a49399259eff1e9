(* Known-good oblivious code: psplint must report zero findings here. *)

(* Straight-line arithmetic on a secret is fine. *)
let mask (x [@secret]) = x land 0xFF [@@oblivious]

(* Branching on public data is fine, even next to a secret. *)
let clamp limit (x [@secret]) = if limit > 0 then x mod limit else x [@@oblivious]

(* Constant-length allocation is fine; only the *length* is checked. *)
let widen (x [@secret]) =
  let b = Bytes.make 8 '\000' in
  Bytes.set b 0 (Char.chr (x land 0xFF));
  b
  [@@oblivious]

(* Arithmetic select: no branch, both inputs always evaluated. *)
let select (bit [@secret]) a b = (bit * a) + ((1 - bit) * b) [@@oblivious]

(* A secret-steered branch is allowed when justified. *)
let balanced_touch (bit [@secret]) pages =
  (if bit = 1 then Array.set pages 0 1 else Array.set pages 0 0)
  [@leak_ok "balanced branch: both arms write exactly one slot of a local array"]
  [@@oblivious]

(* Abbreviations of immediate types compare in constant time: the
   exemption expands the manifest chain before deciding immediacy. *)
type node_id = int
type id_alias = node_id

let same_node (a [@secret] : node_id) (b : node_id) = a = b [@@oblivious]
let same_alias (a [@secret] : id_alias) (b : id_alias) = a <> b [@@oblivious]

(* The compiler-generated default-select of an optional argument
   ([?(pos = 0)]) is not a secret branch: the discriminator is whether
   the caller supplied the argument — call-site syntax, public. *)
let at ?(pos = 0) (buf [@secret]) = Bytes.get buf pos [@@oblivious]

(* The regression shape of the one historical baseline entry: a secret
   supplied *as* the optional argument must not count as steering the
   default-select (the analysis applies [at]'s summary here). *)
let read_at (i [@secret]) buf = at ~pos:i buf [@@oblivious]

(* Non-oblivious helpers are out of scope: effects are fine here. *)
let debug_print x = Printf.printf "x=%d\n" x
