(** Battery cell parameter presets.

    [alpha] is the capacity parameter (mA*min): the battery is exhausted
    when sigma reaches alpha.  [beta] (min^(-1/2)) controls the diffusion
    rate in the Rakhmatov–Vrudhula model.  The "itsy" preset is the
    lithium-ion pack of the Compaq Itsy pocket computer characterized in
    the Rakhmatov–Vrudhula papers, the platform behind the paper's
    experiments. *)

type t = {
  label : string;
  alpha : float;  (** capacity parameter, mA*min, > 0 *)
  beta : float;   (** diffusion parameter, min^(-1/2), > 0 *)
}

val make : label:string -> alpha:float -> beta:float -> t
(** @raise Invalid_argument on non-positive [alpha] or [beta]. *)

val itsy : t
(** alpha = 40375 mA*min, beta = 0.273 — the published Itsy fit. *)

val rated_capacity_mah : t -> float
(** [alpha] expressed in mAh (divide by 60). *)

val model : t -> Model.t
(** The Rakhmatov–Vrudhula model parameterized by this cell. *)
