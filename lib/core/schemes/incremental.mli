(** LM (§4.2) and AF (§4.3) as one {!Engine.SCHEME}: incremental
    region fetching.

    A best-first walk suspended inside [next_page]: each plan round
    grants one region's worth of data-page slots, and the walk pulls
    the region of the next frontier node it pops.  The walk and all its
    per-node state live in the client store ({!Store.walk_next}); this
    module keeps the protocol's bookkeeping: the region queue, which
    regions were fetched and the consumed region budget.  The header's
    region config picks the search: ALT bounds when it carries landmark
    vectors (LM), arc-flag pruning towards the destination's region
    when it carries flags (AF).  Every slot is plan-fixed: the engine
    pads the ones the walk leaves idle, and a walk that needs more
    regions than the budget fails closed.  A walk that asks for a
    region it already fetched means a malformed database and raises
    [Failure].  {!Registry.find} hands this module only headers whose
    config fits the plan. *)

include Engine.SCHEME
