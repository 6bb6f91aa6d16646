(** Reference for [Batsched_numeric.Series.kernel]. *)

val kernel_direct : ?terms:int -> beta:float -> float -> float -> float
(** [kernel_direct ~beta a b] is the RV kernel
    [F(beta, a, b) = 2 * sum_{m=1..terms} (exp(-beta^2 m^2 a)
    - exp(-beta^2 m^2 b)) / (beta^2 m^2)] summed term by term with
    compensated summation: two [exp] calls per term, no memoization.
    The shipped kernel telescopes it into two memoized one-sided tails
    and must agree with it to a few ulps.
    @raise Invalid_argument unless [0 <= a <= b], [beta > 0] and
    [terms > 0]. *)
