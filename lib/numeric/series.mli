(** Evaluation of the exponential-sum kernel of the Rakhmatov–Vrudhula
    battery model.

    The model (Eq. 1 of the paper) needs, for each discharge interval,

    {[ F(beta, a, b) = 2 * sum_{m=1..terms} (exp(-beta^2 m^2 a)
                                           - exp(-beta^2 m^2 b))
                                           / (beta^2 m^2) ]}

    with [0 <= a <= b].  [F] is the "unavailable charge" contribution: it
    measures how much of the charge drawn during an interval is
    recovered by diffusion between the end of the interval ([a] time
    units before the observation instant) and its start ([b] before it).

    The paper truncates the series at 10 terms; callers can request more.
    Terms decay like [exp(-beta^2 m^2 a)], so convergence is extremely
    fast unless [a = 0].

    {2 Caching}

    The two-sided kernel telescopes as [F(a, b) = F(a) - F(b)] over the
    one-sided tail {!exp_sum}, so {!kernel} is served from a memoized,
    domain-local {!Fcache} of tail values keyed on [(beta, terms, t)]
    (raw float words, no key allocation per lookup, generational eviction):
    adjacent intervals of a back-to-back profile share their boundary
    evaluations, and repeated sigma evaluations over the same candidate
    schedules hit the table outright.

    {2 Negative-time noise}

    Time arguments are typically differences of profile endpoints, so
    float cancellation can produce a few-ulp negative where the exact
    value is zero.  {!exp_sum} and {!exp_sum_cached} clamp arguments in
    [[-1e-12, 0)] to [0.0]; anything more negative is a genuine caller
    bug and still raises. *)

val default_terms : int
(** Number of series terms used by the paper (10). *)

val exp_sum : ?terms:int -> beta:float -> float -> float
(** [exp_sum ~beta t] is [2 * sum_{m=1..terms} exp(-beta^2 m^2 t)
    / (beta^2 m^2)], the one-sided tail used to build {!kernel}.
    [t] must be [>= -1e-12]; values in [[-1e-12, 0)] are cancellation
    noise and evaluate as [0.0].
    @raise Invalid_argument on [t < -1e-12], non-positive [beta] or
    non-positive [terms]. *)

val exp_sum_cached : ?terms:int -> beta:float -> float -> float
(** As {!exp_sum}, served from the domain-local memo table.  Returns
    values bit-identical to {!exp_sum} (the table stores exactly what
    {!exp_sum} computed).
    @raise Invalid_argument as {!exp_sum}. *)

val kernel : ?terms:int -> beta:float -> float -> float -> float
(** [kernel ~beta a b] is [F(beta, a, b)] above, computed as the
    difference of two memoized {!exp_sum_cached} tails and clamped at
    [0].  Requires [0 <= a <= b].  Agrees with the term-by-term sum of
    the differences to a few ulps (well within 1e-9).
    @raise Invalid_argument if the ordering constraint is violated. *)

val kernel_at : terms:int -> beta:float -> float array -> int -> unit
(** [kernel_at ~terms ~beta buf i] is {!kernel} on [a = buf.(i)] and
    [b = buf.(i + 1)]: it writes the kernel to [buf.(i)] and clobbers
    [buf.(i + 1)].  Bit-identical to {!kernel}, with the same memo
    traffic, but it allocates nothing: a float passed to or returned
    from a function of another module is boxed.
    @raise Invalid_argument as {!kernel}. *)

val kernel_limit : beta:float -> float
(** [kernel_limit ~beta] is [lim_{b -> infinity} F(beta, 0, b)
    = 2 * sum 1/(beta^2 m^2) = pi^2 / (3 beta^2)], the total
    unavailable-charge ceiling for an instantaneous unit of load.
    Useful as a sanity bound in tests. *)
