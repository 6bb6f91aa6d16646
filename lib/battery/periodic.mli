(** Periodic-mission lifetime analysis.

    A portable device rarely runs its task graph once: it repeats it
    every period (sense/compute/transmit loops, control cycles).  Given
    one cycle's discharge profile and the period, this module answers
    the operational questions: how many cycles does a full battery
    sustain, and what is the slowest period that still reaches a target
    cycle count?  Inter-cycle idle time lets the battery recover, so
    the answers depend on the model's nonlinearity, not just on
    charge-per-cycle.

    Lifetime estimation is O(cycles), through the model's kernel:
    {!Model.Channels} models (ideal, Peukert, KiBaM,
    Rakhmatov–Vrudhula) telescope the repeated cycles into per-channel
    geometric series advanced in O(1) per cycle with no [exp] on the
    per-cycle path, and probe sigma only from the first cycle a bound
    says can kill the battery; {!Model.Stepper} models (the diffusion
    PDE) carry one integration state across the whole mission, in a
    lane of a {!Model.lane_group}, instead of re-integrating the
    history per probe.  The original quadratic path, which replays the full
    history and probes it with the model's reference sigma, is the
    test oracle the property tests check both kernels against.  See
    DESIGN.md §15 for the derivations. *)

exception Unsustainable of float
(** The battery dies within the very first cycle.  Carries sigma at the
    first fatal probe — how far past alpha the cycle lands, which is
    what a caller needs to report {e how} unsustainable the workload
    is. *)

type outcome =
  | Dies of int
      (** [Dies n]: the battery completes exactly [n] cycles and dies
          during cycle [n] (0-based).  [n >= 1] from the scalar
          functions, which raise {!Unsustainable} instead of returning
          [Dies 0]; {!Batch.run} reports first-cycle deaths as
          [Dies 0] (a batch cannot raise per device). *)
  | Censored of int
      (** [Censored h]: still alive after the [h]-cycle horizon.  The
          true lifetime is [>= h] but unknown — survival analytics must
          treat it as censored, not as a death at [h]. *)

val cycles : outcome -> int
(** Complete cycles observed: [n] for [Dies n], the horizon for
    [Censored].  The lower bound on lifetime in both cases. *)

val default_max_cycles : int
(** Horizon used when [?max_cycles] is omitted (500). *)

type device = {
  model : Model.t;
  alpha : float;    (** battery capacity parameter, mA*min *)
  period : float;   (** cycle repetition period, minutes *)
  cycle : Profile.t;  (** one cycle's discharge profile; must fit in
                          the period *)
}
(** One battery-powered device: everything {!Batch.run} needs to
    estimate its endurance. *)

val cycles_to_death :
  ?max_cycles:int -> model:Model.t -> alpha:float -> period:float ->
  Profile.t -> outcome
(** [cycles_to_death ~model ~alpha ~period cycle] repeats [cycle] every
    [period] minutes (the cycle must fit: [length cycle <= period]) and
    returns the number of {e complete} cycles before sigma first
    reaches [alpha], probing sigma at every active-interval end (the
    intra-cycle maxima — sigma relaxes during idle).  Cost is
    O(cycles) after an O(intervals^2 * channels) setup.
    @raise Unsustainable if the first cycle already kills the battery.
    @raise Invalid_argument on a non-positive period, a cycle longer
    than the period, or non-positive [alpha]. *)

(** Population endurance: many devices, each run from its first cycle
    to its end. *)
module Batch : sig
  type result = {
    outcome : outcome;
    fatal_sigma : float;
        (** sigma at the first fatal probe for [Dies _]; [nan] for
            [Censored]. *)
  }

  val run :
    ?max_cycles:int -> n:int -> device:(int -> device) -> unit ->
    result array
  (** [run ~n ~device] estimates the lifetime of devices
      [device 0 .. device (n-1)] — each with its own model, capacity,
      period and cycle — and returns one {!result} per device, in
      device order.  [device] is called exactly once per index, in
      order.  A {!Model.Channels} device is compiled into channel
      tables, which the call reuses for every such device, and run
      until it dies or reaches the horizon before the next device is
      pulled, so nothing of it outlives its run but its result; its
      probes start at the first cycle that can kill it, with the
      outcome and fatal sigma of a sweep from cycle 0, bit for bit.  A
      {!Model.Stepper} device is carried, and once all [n] are pulled,
      the carried devices of one [state_dim] run four at a time in a
      {!Model.lane_group}, or in a group of one lane for a device
      alone, each to its end.  Total work is the sum of lifetimes, not
      [n * max_cycles], and peak memory is the largest device's tables
      plus the carried states — independent of the horizon.  A
      device's result does not depend on the others in the call: scalar
      {!cycles_to_death} is [run ~n:1], so batch and scalar results
      agree bit-for-bit.
      @raise Invalid_argument as {!cycles_to_death}, or on negative
      [n]. *)
end
