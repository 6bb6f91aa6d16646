(** Ideal (linear) battery: sigma is the plain coulomb count,
    [Model.sigma model p ~at = Profile.total_charge (Profile.truncate p
    ~at)].

    The limiting behaviour of {!Rakhmatov} as [beta -> infinity]; useful
    as a baseline cost function and in tests. *)

val model : Model.t
(** Packaged as a {!Model.t} named ["ideal"]: one term per interval,
    [current * duration], and no channels. *)
