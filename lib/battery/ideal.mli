(** Ideal (linear) battery: sigma is the plain coulomb count of the
    load up to [at], the sum of [current * duration] over the intervals
    {!Profile.iter_until} walks.

    The limiting behaviour of {!Rakhmatov} as [beta -> infinity]; useful
    as a baseline cost function and in tests. *)

val model : Model.t
(** Packaged as a {!Model.t} named ["ideal"]: one term per interval,
    [current * duration], and no channels. *)
