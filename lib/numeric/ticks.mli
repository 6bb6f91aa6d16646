(** Fixed-point time ticks.

    The published task data uses 0.1-minute resolution.  The dynamic
    program of baseline [1] needs exact integer arithmetic over times;
    this module converts float minutes to integer deciminute ticks. *)

type t = int
(** A duration in deciminutes (0.1 min).  Always non-negative here. *)

val of_minutes_ceil : float -> t
(** [of_minutes_ceil x] rounds {e up} to the next tick (minus float
    noise of 1e-9) — used where a conservative over-estimate keeps a
    deadline guarantee sound.
    @raise Invalid_argument on negative or non-finite input. *)

val of_minutes_floor : float -> t
(** [of_minutes_floor x] rounds {e down} (plus 1e-9 noise tolerance) —
    the dual, for budgets.
    @raise Invalid_argument on negative or non-finite input. *)
