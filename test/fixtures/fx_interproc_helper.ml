(* Leaf helper for the interprocedural fixtures.  Nothing here is
   [@@oblivious], so no finding lands here, but summarization
   records the parameter-to-sink flows so oblivious callers two modules
   away inherit them. *)

(* Branches on its argument: summary sink (secret-branch on param 0). *)
let clamp v = if v < 0 then 0 else if v > 255 then 255 else v

(* Pure passthrough: returns its argument's taint, no sink of its own. *)
let double v = v * 2
