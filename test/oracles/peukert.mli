val sigma_reference :
  ?exponent:float -> ?reference_current:float ->
  Batsched_battery.Profile.t -> at:float -> float
(** Peukert's law written apart from its channel term: a truncated
    profile copy and the compensated sum of [k * I^p * Delta] over its
    intervals, with the same defaults as [Peukert.model] (exponent 1.2,
    reference current 100 mA).  [Model.sigma] must match it bit for
    bit.
    @raise Invalid_argument on [exponent < 1],
    [reference_current <= 0] or negative [at]. *)
