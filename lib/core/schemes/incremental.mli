(** LM and AF (§4): incremental region fetching.

    A best-first search suspended inside [next_page]: each plan round
    grants one region's worth of data-page slots, and the search pulls
    the region of the next frontier node it pops.  Every slot is
    plan-fixed: the engine pads the ones the search leaves idle, and a
    search that needs more regions than the budget fails closed. *)

module Make (_ : sig
  val use_alt : bool
  val use_flags : bool
end) : Engine.SCHEME
(** [use_alt] steers the search with ALT bounds (LM); [use_flags]
    prunes edges by arc-flags towards the target region (AF). *)
