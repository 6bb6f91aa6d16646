(** Scalar root finding and monotone inversion.

    Battery lifetime estimation inverts the (monotone) charge function
    [sigma(T)]: the lifetime is the smallest [T] with [sigma(T) >= alpha].
    These helpers provide robust bracketing searches that never rely on
    derivatives. *)

exception No_bracket
(** Raised when a bracketing step cannot find a sign change. *)

val bisect :
  ?tol:float -> f:(float -> float) -> lo:float -> hi:float -> unit -> float
(** [bisect ~f ~lo ~hi ()] finds a root of [f] in [[lo, hi]] by bisection.
    Requires [f lo] and [f hi] to have opposite (or zero) signs.
    [tol] (default [1e-9]) is the absolute interval width at which the
    search stops, or after 200 iterations.
    @raise Invalid_argument if [lo > hi] or the bracket does not change
    sign. *)

val brent :
  ?tol:float -> f:(float -> float) -> lo:float -> hi:float -> unit -> float
(** [brent ~f ~lo ~hi ()] finds a root using Brent's method (inverse
    quadratic interpolation with bisection fallback).  Same contract as
    {!bisect}, usually far fewer function evaluations. *)

val invert_monotone :
  ?tol:float -> f:(float -> float) -> target:float -> lo:float -> unit ->
  float
(** [invert_monotone ~f ~target ~lo ()] returns the smallest [x >= lo]
    with [f x >= target], assuming [f] is non-decreasing.  The upper
    bracket is found by doubling from [lo] (starting step 1.0).
    @raise No_bracket if no [x <= lo + 2^60] reaches [target]. *)
