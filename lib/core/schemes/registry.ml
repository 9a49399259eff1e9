module H = Psp_index.Header
module E = Psp_index.Encoding
module QP = Psp_index.Query_plan

(* The scheme registry: the one place a header's scheme tag turns into
   code.  The tag, the plan and, for LM and AF, the region config must
   agree: a mismatched header is as unknown as an unknown tag, so it
   becomes a typed status instead of being served under another plan
   or failing partway through the walk. *)

let find (header : H.t) : Engine.scheme option =
  let c = header.H.config in
  match (header.H.scheme, header.H.plan) with
  | "CI", QP.Ci _ | "PI", QP.Pi _ | "PI*", QP.Pi_star _ | "HY", QP.Hy _ ->
      Some (module Indexed)
  | "LM", QP.Lm _
    when c.E.with_region_ids && c.E.landmark_anchors > 0 && c.E.flag_bits = 0 ->
      Some (module Incremental)
  | "AF", QP.Af _
    when c.E.with_region_ids
         && c.E.landmark_anchors = 0
         && c.E.flag_bits >= header.H.region_count ->
      Some (module Incremental)
  | _ -> None
