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
    one-sided tail [F(t) = 2 * sum_{m=1..terms} exp(-beta^2 m^2 t)
    / (beta^2 m^2)], so {!kernel} is served from a memoized,
    domain-local {!Fcache} of tail values keyed on [(beta, terms, t)]
    (raw float words, no key allocation per lookup, generational eviction):
    adjacent intervals of a back-to-back profile share their boundary
    evaluations, and repeated sigma evaluations over the same candidate
    schedules hit the table outright. *)

val default_terms : int
(** Number of series terms used by the paper (10). *)

val kernel : ?terms:int -> beta:float -> float -> float -> float
(** [kernel ~beta a b] is [F(beta, a, b)] above, computed as the
    difference of two memoized one-sided tails and clamped at
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
