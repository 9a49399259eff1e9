(** The look-up schemes — CI (§5.4), PI, PI* and HY (§6) — as one
    {!Engine.SCHEME}.

    All four run the same client protocol: read the (rs, rt) entry of
    the look-up file, read a window of FI pages around the record it
    names, decode the record, and fetch region data through the shared
    region queue.  The header's plan sets everything that differs:
    - the window file: ["index"], or ["combined"] for HY;
    - the window span: [fi_span], or [r] for HY;
    - the region budget: [m + 2] for CI, 2 for PI and PI*, [round4]
      for HY;
    - the record kinds accepted: region sets for CI, subgraphs for PI and
      PI*, both for HY;
    - long records: only an HY subgraph record may run past the window.
      Its tail pages lead round 4, and it decodes when the last tail
      page lands.

    A subgraph record consumes the two endpoint regions (a shared
    region degrades the second to dummy retrievals); a region set
    consumes its own regions plus both endpoints.  A missing look-up
    page, a record kind the plan forbids and a fetch set over the
    budget all fail closed.  {!Registry.find} hands this module only
    headers whose tag and plan agree. *)

include Engine.SCHEME
