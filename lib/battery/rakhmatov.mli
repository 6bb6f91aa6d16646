(** The Rakhmatov–Vrudhula analytical battery model (ICCAD 2001), the
    paper's Eq. 1.

    For a profile with intervals [(t_k, Delta_k, I_k)] and an
    observation instant [T] at or after the end of the load,

    {[ sigma(T) = sum_k I_k * ( Delta_k
                  + 2 * sum_{m=1..10} ( exp(-beta^2 m^2 (T - t_k - Delta_k))
                                      - exp(-beta^2 m^2 (T - t_k)) )
                                      / (beta^2 m^2) ) ]}

    The first addend is the actual charge drawn; the series term is the
    charge made temporarily *unavailable* by the diffusion gradient,
    which relaxes (recovers) as [T] moves away from the interval.  Large
    [beta] means fast diffusion (an ideal battery as
    [beta -> infinity]); small [beta] exaggerates rate-capacity and
    recovery effects. *)

val default_beta : float
(** The paper's value, 0.273 (minutes^(-1/2)). *)

val valid_beta : float -> bool
(** Whether [beta] is a usable diffusion parameter: a number from
    [1e-150] to [1e150], where every denominator [beta^2 m^2] of a
    series of up to [10^4] terms is a finite normal double.  Far enough
    outside that range sigma comes out [nan], or [Series] raises
    ([beta <= 0]); the entry points reject the whole outside. *)

val sigma :
  ?terms:int -> ?beta:float -> Profile.t -> at:float -> float
(** [sigma p ~at] evaluates Eq. 1 at time [at].  Load after [at] is
    truncated away (an interval straddling [at] is clipped, so [at]
    always coincides with the end of the last counted interval or
    falls in idle time).  [terms] defaults to the paper's 10.

    This is the fast evaluator: truncation happens lazily during the
    interval fold (no profile copy), the kernel is served from the
    memoized [Series] tails, and whole per-interval contributions are
    memoized in suffix-time coordinates on
    [(beta, terms, current, duration, tail)] — where
    [tail = at - start - duration] is the time the interval has to
    recover before the observation instant — in a domain-local table.
    Because the key carries no absolute time, candidate schedules of
    different total length share entries for every suffix-aligned
    interval; re-costing a candidate only pays for intervals whose
    distance from the end moved.  Agrees with the seed's
    truncate-and-sum evaluation to well under 1e-9 (relative).
    @raise Invalid_argument on negative [at]. *)

val contribution :
  terms:int -> beta:float -> current:float -> duration:float ->
  tail:float -> float
(** One interval's contribution to sigma in suffix-time coordinates:
    [current * (duration + kernel tail (tail + duration))], memoized.
    [tail >= 0] is the load duration between the interval's end and the
    observation instant.  This is the term behind both {!sigma} and the
    model's {!Model.incremental} interface; exposed so the delta
    evaluator and the full path share one cache. *)

val model : ?terms:int -> ?beta:float -> unit -> Model.t
(** Package {!sigma} as a {!Model.t} named ["rakhmatov"], with the
    incremental and decay paths. *)

val unavailable_charge :
  ?terms:int -> ?beta:float -> Profile.t -> at:float -> float
(** The series part alone: [sigma p ~at - total_charge (truncate p at)].
    Non-negative while the load is active; decays toward 0 during rest
    (full recovery in the limit). *)
