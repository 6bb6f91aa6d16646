(** Local-search polish — squeezing the last few percent out of the
    iterative algorithm's schedule.

    The paper's loop only explores sequences reachable through the
    Eq. 4 weighted rescheduling; adjacent-transposition local search
    explores a different neighbourhood.  The pass alternates two moves
    until a fixed point (or the round budget):

    - swap two adjacent tasks when precedence allows and the battery
      cost drops (durations are untouched, so feasibility is free);
    - re-run the window sweep on the improved sequence and adopt the
      re-fitted design points when they help.

    The result is never worse than the input schedule. *)

open Batsched_taskgraph
open Batsched_sched

val two_swap :
  ?max_rounds:int -> Config.t -> Graph.t -> Schedule.t -> Schedule.t
(** [two_swap cfg g sched] with at most [max_rounds] (default 10)
    improvement rounds.

    Candidate swaps are costed on the incremental evaluator
    ({!Batsched_sched.Eval}): O(1) per candidate instead of the seed's
    topological check + schedule + full sigma.  The two agree up to
    sigma round-off, and the 1e-9 improvement margin makes the accepted
    moves identical in practice.
    @raise Invalid_argument if [max_rounds < 1]. *)

val polish :
  ?max_rounds:int -> Config.t -> Graph.t -> Iterate.result -> Iterate.result
(** Convenience: polish an {!Iterate} result, updating its schedule,
    sigma and finish when the local search improves them. *)
