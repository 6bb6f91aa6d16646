(** Battery lifetime estimation.

    Lifetime is the smallest [T] with [sigma(T) >= alpha] (the paper's
    Sec. 3 stopping rule).  Because the Rakhmatov–Vrudhula sigma can
    {e dip} when a heavy load ends (recovery), the first crossing is
    located by a fine forward scan followed by bisection inside the
    bracketing step, not by global inversion. *)

type outcome =
  | Dies_at of float
      (** The battery is exhausted at this time (minutes), at or before
          the end of the profile. *)
  | Survives of { sigma_at_end : float; headroom : float }
      (** The profile completes; [headroom = alpha - sigma_at_end >= 0]
          is the unspent capacity at completion. *)

val of_profile : model:Model.t -> alpha:float -> Profile.t -> outcome
(** [of_profile ~model ~alpha p] decides whether the battery survives
    the whole profile and, if not, when it dies.
    @raise Invalid_argument on non-positive [alpha]. *)

val of_constant_current :
  model:Model.t -> alpha:float -> current:float -> float
(** [of_constant_current ~model ~alpha ~current] is the lifetime under a
    constant load that lasts until exhaustion.
    @raise Invalid_argument on non-positive [alpha] or [current], or
    when the search horizon (from [2 alpha / current], doubled while the
    battery outlives it) stops being finite. *)

val survives : model:Model.t -> alpha:float -> Profile.t -> bool
(** [survives ~model ~alpha p] is true iff the profile completes. *)
