val sigma_reference : Batsched_battery.Profile.t -> at:float -> float
(** The ideal model's sigma written apart from its channel term: the
    immutable compensated sum of [current * duration] over
    {!Profile.fold_until}, that is
    [Profile.total_charge (Profile.truncate p ~at)].  [Model.sigma
    Ideal.model] must match it bit for bit.
    @raise Invalid_argument on negative [at]. *)
