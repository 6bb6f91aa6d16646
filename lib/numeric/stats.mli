(** Descriptive statistics over float samples.

    Used by the experiment harness to summarize sweeps (mean gap,
    percentile runtimes, ...). *)

val mean : float list -> float
(** Arithmetic mean. @raise Invalid_argument on the empty list. *)

val variance : float list -> float
(** Unbiased sample variance (n-1 denominator); 0 for singletons.
    @raise Invalid_argument on the empty list. *)

val min_max : float list -> float * float
(** Smallest and largest sample. @raise Invalid_argument on empty. *)

val percentile : float -> float list -> float
(** [percentile p xs] is the [p]-th percentile ([0 <= p <= 100]) using
    linear interpolation between order statistics.
    @raise Invalid_argument on empty list or [p] outside [0, 100]. *)

val median : float list -> float
(** [median xs = percentile 50. xs]. *)

val geometric_mean : float list -> float
(** Geometric mean; requires strictly positive samples.
    @raise Invalid_argument on empty list or non-positive samples. *)
