(** Peak-shaving idle insertion — an extension beyond the paper.

    For sigma evaluated at a {e fixed} instant, packing tasks as early
    as possible is provably optimal (each interval's recovery window
    only shrinks as it moves later), so rest can never reduce the
    paper's cost function.  What rest {e can} do is save a mission:
    because the Rakhmatov–Vrudhula sigma is non-monotone in time —
    it relaxes during rest — the battery may cross its capacity
    [alpha] mid-schedule under packed execution yet survive the same
    work with recovery gaps inserted after heavy bursts.

    This pass minimizes the {e peak} of sigma over the schedule,
    subject to still finishing by the deadline.  Local maxima of sigma
    occur at active-interval end points (sigma strictly relaxes during
    idle), so the peak is evaluated there. *)

open Batsched_taskgraph
open Batsched_sched
open Batsched_battery

type placement = {
  after_position : int;  (** gap inserted after this sequence position *)
  amount : float;        (** idle minutes, > 0 *)
}

type result = {
  placements : placement list;   (** in sequence order *)
  profile : Profile.t;           (** the gapped discharge profile *)
  peak_gapped : float;           (** max over time of sigma, with gaps *)
  peak_packed : float;           (** max over time of sigma, no gaps *)
  improvement : float;           (** [peak_packed - peak_gapped], >= 0 *)
}

val peak_sigma : Model.t -> Profile.t -> float
(** Largest sigma over the profile's duration (evaluated at every
    interval end, where local maxima live; 0 for the empty profile). *)

val optimize : Config.t -> Graph.t -> Schedule.t -> result
(** [optimize cfg g sched] distributes [deadline - finish_time] as idle
    gaps, in 16 granules, greedily placing each
    granule where it lowers the sigma peak most; granules that no
    longer help are left unplaced.  The gapped schedule never exceeds
    the deadline and never reorders tasks.
    @raise Invalid_argument if the schedule misses the deadline. *)

val survivable_alphas : result -> float * float
(** [(lo, hi)] = [(peak_gapped, peak_packed)]: any battery capacity
    alpha strictly inside this window dies under packed execution but
    completes the mission with the returned gaps. *)
