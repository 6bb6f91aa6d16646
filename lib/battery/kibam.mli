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

type state = { available : float; bound : float }
(** Well contents (mA*min). *)

val full : params -> state
(** The fully charged equilibrium: [available = c * capacity]. *)

val step : params -> state -> current:float -> duration:float -> state
(** Closed-form evolution over one constant-current interval.  Both
    wells may legitimately go negative once the battery is past
    exhaustion; callers detect death via [available <= 0].  A
    zero-length interval is the exact identity (the input state is
    returned unchanged), so degenerate intervals from same-column
    repoints introduce no drift.
    @raise Invalid_argument on negative current or duration. *)

val state_at : params -> Profile.t -> at:float -> state
(** Evolve {!full} through the profile (idle gaps included) up to time
    [at]. *)

val sigma : ?params:params -> Profile.t -> at:float -> float
(** Apparent charge lost, mapped onto the sigma/alpha convention used
    across this library: [sigma = capacity - available/c].  At rest
    equilibrium this equals the charge actually drawn (full recovery);
    under load it exceeds it (rate capacity); the battery dies when
    [sigma >= capacity]. *)

val incremental : params -> Model.incremental
(** The exact suffix-time decomposition of [sigma] at the makespan of a
    gapless profile: the per-interval affine maps diagonalize (total
    charge is conserved; the disequilibrium [y1 - c*y0] contracts by
    [e^{-k' D}] per interval), giving

    {[ sigma = sum_k ( I_k D_k
                       + ((1-c)/(c k')) I_k (1 - e^{-k' D_k}) e^{-k' tail_k} ) ]}

    Tail-sensitive; a [duration = 0] term is exactly [0.].  See
    DESIGN.md §11 for the derivation. *)

val model : ?params:params -> unit -> Model.t
(** Packaged as a {!Model.t} named ["kibam"] with the incremental and
    decay paths above.  Use [params.capacity] as the matching [alpha]
    for lifetime queries. *)
