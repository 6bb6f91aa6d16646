open Batsched_battery

val cycles_to_death_reference :
  ?max_cycles:int -> sigma:(Profile.t -> at:float -> float) -> alpha:float ->
  period:float -> Profile.t -> Periodic.outcome
(** The quadratic full-history estimator, [Periodic]'s original
    implementation: cycle [k] appends the cycle shifted by [k * period]
    to the whole history and probes every interval end of it with
    [sigma], which is the model's reference implementation (the
    [sigma_reference] of its oracle module), not the kernel [Periodic]
    evaluates.  Same contract as [cycles_to_death], input checks
    included.  For channel models the two agree up to float
    accumulation noise; for the diffusion PDE they are bit-identical. *)

val result_reference :
  ?max_cycles:int -> sigma:(Profile.t -> at:float -> float) ->
  Periodic.device -> Periodic.Batch.result
(** The same estimator for one device as a batch result, which carries
    the fatal sigma of every death, not only of a first-cycle one.  The
    device's model is not read: [sigma] stands for it. *)
