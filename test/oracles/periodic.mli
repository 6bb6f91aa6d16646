(** Reference for [Batsched_battery.Periodic.cycles_to_death]. *)

open Batsched_battery

val cycles_to_death_reference :
  ?max_cycles:int -> model:Model.t -> alpha:float -> period:float ->
  Profile.t -> Periodic.outcome
(** The quadratic full-history estimator, [Periodic]'s original
    implementation: cycle [k] appends the cycle shifted by [k * period]
    to the whole history and probes every interval end of it with the
    model's own [sigma].  Same contract as [cycles_to_death], input
    checks included.  For channel models the two agree up to float
    accumulation noise; for stepper models (the diffusion PDE) they are
    bit-identical. *)

val result_reference :
  ?max_cycles:int -> Periodic.device -> Periodic.Batch.result
(** The same estimator for one device as a batch result, which carries
    the fatal sigma of every death, not only of a first-cycle one. *)
