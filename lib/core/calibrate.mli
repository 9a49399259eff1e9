(** Query-plan calibration for the LM and AF baselines (§4).

    Their plans are a single page budget, built as the whole data file.
    The paper tightens it to the most any source–destination pair needs;
    we take the maximum over a query workload (the one the experiment
    runs, or a superset), running the ordinary client on a scratch
    server under the whole-file plan, so the result ignores the plan it
    is given.  This decides availability, not privacy: a query that needs
    more still walks exactly the plan and fails closed
    ({!Client.plan_exceeded}).

    The whole-file plan budgets every region plus one: round 2 charges
    two region windows even when source and destination share a region.
    So every calibration query must be answered; one that is not is a
    fault, not a zero. *)

val lm :
  Psp_index.Database.t -> queries:(int * int) array -> Psp_index.Database.t
(** Returns the database with its [Lm] plan bound to the workload
    maximum.
    @raise Failure if a calibration query is not answered under the
    whole-file plan. *)

val af :
  Psp_index.Database.t -> queries:(int * int) array -> Psp_index.Database.t
(** As {!lm}, for [Af]. *)
