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

val valid_pde_grid : beta:float -> nodes:int -> dt:float -> bool
(** Whether the diffusion PDE ({!Diffusion}) on [nodes] grid points
    with time step [dt] can take [beta]: [dt * beta^2 / (pi^2 dx^2)]
    below [2^53], with [dx = 1 / (nodes - 1)].  From [2^53] on,
    [1 + dt * beta^2 / (pi^2 dx^2)], the Crank–Nicolson diagonal, is no
    longer exact, and the last Thomas pivot rounds to zero or below;
    under it that pivot is at least about 1.  {!Diffusion.make_params} and
    the entry points that build a PDE from user input reject the
    outside. *)

val model : ?terms:int -> ?beta:float -> unit -> Model.t
(** Eq. 1 with [terms] series terms (default the paper's 10) and
    diffusion parameter [beta], packaged as a {!Model.t} named
    ["rakhmatov"], whose kernel is one channel per series term.
    {!Model.sigma} folds its terms over the intervals up to the
    observation instant (an interval straddling it is clipped), each
    term [current * (duration + kernel tail (tail + duration))] with
    [tail = at - start - duration], the time the interval has to
    recover before the observation instant.

    Whole terms are memoized in suffix-time coordinates on
    [(beta, terms, current, duration, tail)], in a domain-local table,
    and the kernel is served from the memoized [Series] tails.  Because
    the key carries no absolute time, candidate schedules of different
    total length share entries for every suffix-aligned interval;
    re-costing a candidate only pays for intervals whose distance from
    the end moved.  The {!Delta} evaluator shares the same table.  The
    seed's truncate-and-sum evaluation, kept with the tests, agrees to
    well under 1e-9 (relative). *)
