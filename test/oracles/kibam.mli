(** The two-well integration of the Kinetic Battery Model, the
    independent check on the channel decomposition behind [Kibam.model]
    (DESIGN.md §11.1).  The wells are evolved interval by interval in
    absolute coordinates, so every step rounds at the magnitude of the
    capacity: the two agree within a few ulps of the capacity per step,
    not bit for bit. *)

type state = { available : float; bound : float }
(** Well contents (mA*min). *)

val full : Batsched_battery.Kibam.params -> state
(** The fully charged equilibrium: [available = c * capacity]. *)

val step :
  Batsched_battery.Kibam.params -> state -> current:float ->
  duration:float -> state
(** Closed-form evolution over one constant-current interval.  Both
    wells may legitimately go negative once the battery is past
    exhaustion.  A zero-length interval is the exact identity (the
    input state is returned unchanged).
    @raise Invalid_argument on negative current or duration. *)

val state_at :
  Batsched_battery.Kibam.params -> Batsched_battery.Profile.t -> at:float ->
  state
(** Evolve {!full} through the profile (idle gaps included) up to time
    [at].
    @raise Invalid_argument on negative [at]. *)

val sigma_reference :
  ?params:Batsched_battery.Kibam.params -> Batsched_battery.Profile.t ->
  at:float -> float
(** [capacity - available/c] of {!state_at}: the model's sigma. *)
