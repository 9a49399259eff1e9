(** LM and AF (§4): incremental region fetching.

    A best-first search suspended inside [next_page]: each plan round
    grants one region's worth of data-page slots, and the search pulls
    the region of the next frontier node it pops.  Every slot is
    plan-fixed: the engine pads the ones the search leaves idle, and a
    search that needs more regions than the budget fails closed. *)

val alt_heuristic :
  to_v:float array -> from_v:float array -> to_t:float array -> from_t:float array -> float
(** ALT (landmark) lower bound from node v to node t, given each one's
    to-anchor and from-anchor distance vectors; 0 without anchors. *)

val region_rects :
  Psp_index.Header.t -> (float * float * float * float) array
(** Leaf bounding rectangles of the header's KD-tree, indexed by
    region; the root box is unbounded, so sides may be infinite. *)

val rect_distance : float * float * float * float -> x:float -> y:float -> float
(** Euclidean distance from a point to a rectangle (0 inside). *)

module Make (_ : sig
  val use_alt : bool
  val use_flags : bool
end) : Engine.SCHEME
(** [use_alt] steers the search with ALT bounds (LM); [use_flags]
    prunes edges by arc-flags towards the target region (AF). *)
