(** Current discharge profiles.

    A profile is a finite sequence of non-overlapping intervals, each
    drawing a constant current from the battery.  Gaps between intervals
    are idle periods (zero current) during which the battery recovers.
    Times are in minutes, currents in mA, charges in mA*min throughout
    the repository. *)

type interval = private {
  start : float;     (** interval start time, minutes from 0 *)
  duration : float;  (** interval length, minutes, > 0 *)
  current : float;   (** constant platform current, mA, >= 0 *)
}

type t
(** A validated profile: intervals sorted by start time, pairwise
    non-overlapping, all within [[0, infinity)].  Stored as three
    unboxed float arrays (start/duration/current per interval), so the
    hot sigma evaluators can walk it without per-call allocation — use
    {!iter_until} rather than {!intervals} on hot paths. *)

val of_intervals : (float * float * float) list -> t
(** [of_intervals [(start, duration, current); ...]] validates and sorts.
    Zero-duration intervals are dropped.
    @raise Invalid_argument on negative fields or overlapping
    intervals. *)

val sequential : (float * float) list -> t
(** [sequential [(current, duration); ...]] lays intervals back to back
    from time 0 — the shape produced by a sequential task schedule.
    Zero-duration entries are dropped.
    @raise Invalid_argument on negative currents or durations. *)

val sequential_fn : n:int -> (int -> float * float) -> t
(** [sequential_fn ~n f] is [sequential [f 0; f 1; ...; f (n-1)]]
    without building the intermediate list: [f i] returns the
    [(current, duration)] of the [i]-th back-to-back interval and the
    arrays are filled directly.  The schedule-to-profile conversion on
    the search hot path uses this.
    @raise Invalid_argument as {!sequential}, or on negative [n]. *)

val sequential_arrays : currents:float array -> durations:float array -> t
(** [sequential_arrays ~currents ~durations] is {!sequential} of the
    pairs [(currents.(i), durations.(i))].  It reads the arrays without
    keeping them and boxes no float, so building a schedule's profile
    allocates only the profile.
    @raise Invalid_argument as {!sequential}, or when the lengths
    differ. *)

val constant : current:float -> duration:float -> t
(** A single-interval profile starting at 0. *)

val with_idle : t -> after:float -> idle:float -> t
(** [with_idle p ~after ~idle] shifts every interval starting at or
    after time [after] right by [idle] minutes, opening a recovery gap.
    @raise Invalid_argument on negative [idle]. *)

val intervals : t -> interval list
(** Intervals in increasing start-time order.  Materializes a fresh
    list; prefer {!iter_until} where allocation matters. *)

val num_intervals : t -> int
(** Number of (positive-duration) intervals. *)

val iter_until : t -> at:float -> float array -> (unit -> unit) -> unit
(** [iter_until t ~at buf f] walks the load up to time [at]: intervals
    starting at or after [at] are skipped, and one straddling [at] is
    clipped to [at - start].  Before each call of [f] it writes the
    interval's start, (clipped) duration and current to [buf.(0)],
    [buf.(1)] and [buf.(2)].  A float passed between modules is boxed;
    this walk passes none, so a sigma evaluator that keeps its sums in
    arrays allocates nothing per interval. *)

val length : t -> float
(** End time of the last interval (0 for a profile with none). *)

val total_charge : t -> float
(** Plain coulomb count [sum I_k * Delta_k] (mA*min), i.e. the charge an
    ideal battery would lose. *)

val superpose : t list -> t
(** [superpose ps] sums the profiles: concurrent currents add, as when
    several processing elements draw from one battery.  The result is
    the step function of the total current, with zero-current stretches
    left as gaps. *)

val peak_current : t -> float
(** Largest interval current (0 for a profile with no intervals). *)

val pp : Format.formatter -> t -> unit
(** Human-readable rendering, one interval per line. *)
