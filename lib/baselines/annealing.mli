(** Simulated-annealing scheduler.

    The paper's related-work section argues SA is too heavy to run {e on
    the embedded platform itself}; we implement it anyway as an offline
    quality yardstick.  The state is a (sequence, assignment) pair; the
    neighbourhood either re-points one task or swaps two adjacent
    sequence positions when the swap preserves precedence.  Deadline
    violations are admitted during the walk but penalized, so the
    returned solution is always feasible (the best feasible state
    seen).  One walk, costed on the incremental evaluator; the seed's
    full-evaluation walk is the test oracle. *)

open Batsched_taskgraph
open Batsched_battery

exception No_feasible_state
(** Raised when the walk never visits a deadline-feasible state (only
    possible when even all-fastest is infeasible). *)

type params = {
  initial_temperature : float;  (** > 0; in sigma units *)
  cooling : float;              (** geometric factor in (0, 1) *)
  steps_per_temperature : int;  (** > 0 *)
  temperature_floor : float;    (** stop when T drops below; > 0 *)
}

val default_params : params
(** T0 = 2000 mA*min, cooling 0.9, 60 steps per level, floor 1.0. *)

val run :
  ?params:params -> ?events:Batsched_obs.Events.t ->
  ?should_stop:(unit -> bool) -> rng:Batsched_numeric.Rng.t ->
  model:Model.t -> Graph.t -> deadline:float -> Solution.t
(** Anneal from the Chowdhury starting point.

    Candidates are costed on the incremental evaluator
    ({!Batsched_sched.Eval}): O(1) per swap candidate instead of a full
    schedule + sigma evaluation.  Repoints onto the current column are
    booked as accepted without evaluation (counted in
    [Probe.anneal_noops]), and the returned solution is always
    re-materialized through the full model.  The walk draws the same
    RNG stream as the seed's full-evaluation walk, so under the same
    seed the two agree up to sigma round-off (see
    {!Batsched_sched.Eval}).

    [should_stop] (default [fun () -> false]) is polled once per
    temperature level; when it turns true the walk stops and the best
    solution found so far is returned — the anytime cancellation hook
    the serve daemon uses.  A hook that never fires leaves the RNG
    stream and the result bit-identical to an unhooked run.

    [events] (default noop) receives convergence records: one
    [anneal_start], one [anneal_level] per temperature level (with the
    level's acceptance window, the current energy and the best sigma so
    far), and one [anneal_done].  Emission reads only probe-counter
    deltas and never the RNG, so the walk is bit-identical with any
    stream.
    @raise No_feasible_state; @raise Invalid_argument on bad params. *)
