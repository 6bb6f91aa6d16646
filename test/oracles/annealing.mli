(** Reference for [Batsched_baselines.Annealing.run]. *)

val run :
  ?params:Batsched_baselines.Annealing.params ->
  rng:Batsched_numeric.Rng.t -> model:Batsched_battery.Model.t ->
  Batsched_taskgraph.Graph.t -> deadline:float ->
  Batsched_baselines.Solution.t
(** The seed's walk: every candidate is costed through a freshly
    validated schedule and the model's full sigma path.  It draws the
    same RNG stream as the shipped delta walk and books the same
    [anneal_*] probe counters, so under one seed the two return the
    same solution.  It emits no events and cannot be cancelled.
    @raise Batsched_baselines.Annealing.No_feasible_state. *)
