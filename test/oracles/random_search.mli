(** Reference for [Batsched_baselines.Random_search.run]. *)

val run :
  ?samples:int -> rng:Batsched_numeric.Rng.t ->
  model:Batsched_battery.Model.t -> Batsched_taskgraph.Graph.t ->
  deadline:float -> Batsched_baselines.Solution.t
(** The seed's sampler: every sample is built as a validated schedule
    and costed through the full model.  It draws the same RNG stream as
    the shipped sampler, which re-seats one incremental evaluator per
    sample, so under one seed the two return the same solution.  It
    emits no events.
    @raise Batsched_baselines.Random_search.No_feasible_sample. *)
