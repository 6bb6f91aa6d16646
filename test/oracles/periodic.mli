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

val channel_sweep :
  ?max_cycles:int -> Model.channels -> Periodic.device ->
  Periodic.Batch.result
(** [Periodic.Batch]'s channel kernel as it was before its sweep
    started at the first cycle that can kill the device: the device's
    closed-form tables ([base], [b], [rho]) compiled with the same
    operations, then every interval end of every cycle probed from
    cycle 0.  [Batch.run] must return the same outcome and the same
    fatal-sigma bits for every channel device.  The kernel is
    [channels], not the device's model, so a test can hand it a
    [Model.channels] of its own. *)
