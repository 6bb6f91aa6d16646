(** Random search: uniformly random linearizations and feasible
    assignments, keep the best.  The weakest sensible baseline — a
    floor that any informed heuristic must beat on average. *)

open Batsched_taskgraph
open Batsched_battery

exception No_feasible_sample
(** No sampled assignment met the deadline (or all-fastest is itself
    infeasible). *)

val random_sequence : rng:Batsched_numeric.Rng.t -> Graph.t -> int list
(** A linearization drawn by randomized list scheduling (uniform choice
    among ready tasks at each step). *)

val run :
  ?samples:int -> ?events:Batsched_obs.Events.t ->
  rng:Batsched_numeric.Rng.t -> model:Model.t -> Graph.t ->
  deadline:float -> Solution.t
(** [run ~rng ~model g ~deadline] draws [samples] (default 200)
    random schedules; assignments are drawn uniformly per task and
    repaired to feasibility by speeding random tasks up while over the
    deadline.

    Each sample is costed by re-seating one reused
    {!Batsched_sched.Eval}; only the winner is materialized through the
    full model.  The draws are those of the seed's schedule-per-sample
    path, so under the same seed the two agree up to sigma round-off.

    [events] receives one [random_start] record plus a [sample] record
    per best-so-far improvement; emission never touches the RNG, so an
    instrumented run is bit-identical to a bare one.
    @raise No_feasible_sample. *)
