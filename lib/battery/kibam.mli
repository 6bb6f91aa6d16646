(** The Kinetic Battery Model (KiBaM) of Manwell & McGowan.

    Charge lives in two wells: an {e available} well [y1] that feeds the
    load directly and a {e bound} well [y2] that replenishes it at a
    finite rate.  With [c] the available-well capacity fraction and
    [k'] the effective rate constant, a constant-current interval has a
    closed-form solution, so arbitrary piecewise-constant profiles are
    evaluated exactly (no ODE integration error).  The battery is
    exhausted when the available well empties, even while bound charge
    remains — KiBaM's rendition of the rate-capacity effect; at rest the
    wells re-equilibrate — its recovery effect.

    KiBaM is the standard alternative to the Rakhmatov–Vrudhula
    diffusion model in the battery-aware scheduling literature
    (cf. Jongerden & Haverkort's model comparison); it is included to
    test the scheduler's robustness to the choice of battery model. *)

type params = {
  capacity : float;  (** total charge [y1 + y2] when full, mA*min; > 0 *)
  c : float;         (** available-well fraction, in (0, 1) *)
  k_prime : float;   (** effective rate constant, 1/min; > 0 *)
}

val default_params : params
(** Capacity matched to the Itsy cell's alpha (40375 mA*min),
    [c = 0.5], [k_prime = 0.05] — mid-range literature values. *)

val make_params : capacity:float -> c:float -> k_prime:float -> params
(** @raise Invalid_argument outside the ranges above. *)

val model : ?params:params -> unit -> Model.t
(** Packaged as a {!Model.t} named ["kibam"] whose kernel is the
    channels above, so {!Model.sigma} is their fold.  Use
    [params.capacity] as the matching [alpha] for lifetime queries. *)
