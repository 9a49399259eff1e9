(** The scheme registry: the one place a header's scheme tag turns into
    code. *)

val find : Psp_index.Header.t -> Engine.scheme option
(** The pluggable module for a header, or [None] for an unknown tag, a
    tag whose plan is of another scheme, or an LM/AF header whose region
    config cannot run its walk: LM needs region ids and landmark vectors
    and no arc-flags, AF region ids and an arc-flag per region and no
    landmark vectors.  Each is surfaced as
    {!Client.status.Unknown_scheme}. *)
