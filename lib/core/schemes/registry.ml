module QP = Psp_index.Query_plan

(* The scheme registry: the one place a header's scheme tag turns into
   code.  The tag and the plan must agree: a mismatched pair is as
   unknown as an unknown tag, so it becomes a typed status instead of
   being served under the other plan. *)

let find tag (plan : QP.t) : Engine.scheme option =
  match (tag, plan) with
  | "CI", QP.Ci _ | "PI", QP.Pi _ | "PI*", QP.Pi_star _ | "HY", QP.Hy _ ->
      Some (module Indexed)
  | "LM", QP.Lm _ -> Some (module Lm)
  | "AF", QP.Af _ -> Some (module Af)
  | _ -> None
