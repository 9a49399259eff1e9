(** The scheme registry: the one place a header's scheme tag turns into
    code. *)

val find : string -> Psp_index.Query_plan.t -> Engine.scheme option
(** The pluggable module for a header's scheme tag and plan, or [None]
    for an unknown tag or a tag whose plan is of another scheme (both
    surfaced as {!Client.status.Unknown_scheme}). *)

