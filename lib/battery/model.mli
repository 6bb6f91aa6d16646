(** Battery model interface.

    A model maps a discharge profile and an observation instant to the
    *apparent charge lost* sigma (mA*min).  A battery with capacity
    parameter alpha dies at the first instant where sigma reaches alpha.
    Five implementations ship with the library: {!Ideal}, {!Peukert},
    {!Rakhmatov} (the paper's cost function), {!Kibam} and the
    {!Diffusion} PDE reference.

    A model is its name and exactly one {!kernel}: a {!channels}
    decomposition (ideal, Peukert, Rakhmatov–Vrudhula, KiBaM) or a
    {!stepper} (the diffusion PDE).  {!sigma} is derived from that
    kernel, and {!Periodic} (repeated missions) evaluates through it
    too, so there is one implementation of each model's sigma.  A
    stepper is driven through one interface, a {!lane_group}: {!sigma}
    runs a group of one lane, {!Periodic} one of four lanes, or of one
    for a device alone.  {!Delta} (local-search moves) takes channel
    models only.  The reference implementations the kernels are checked
    against live with the tests. *)

type channels = {
  term : float array -> int -> unit;
  (** [term buf j] is one interval's contribution to sigma, in
      suffix-time coordinates: it reads the interval's current,
      duration and [tail] from [buf.(j)], [buf.(j + 1)] and
      [buf.(j + 2)], writes the contribution to [buf.(j)] and may
      clobber the two cells after it.  [tail] is the time from the
      interval's end to the observation instant; at the end of a
      sequential profile it is the total load duration scheduled
      strictly after the interval, so

      {[ sigma (sequential ps) ~at:(length (sequential ps))
           = sum_k term (I_k, D_k, tail_k) ]}

      where [tail_k = sum_{j>k} D_j].  This is what makes delta
      evaluation of local-search moves possible: an adjacent swap
      perturbs two terms, a duration change at position [i] perturbs
      the terms at [0..i] only.  A term with [duration = 0] must be
      exactly [0.].  The floats travel through [buf] because a float
      passed to or returned from a closure is boxed: a sum of terms
      allocates nothing per term. *)
  rates : float array;
  (** The distinct relaxation rates [lambda_t] (1/minutes) of the
      model's memory, all [> 0].  Empty for memoryless models (ideal,
      Peukert), whose [term] ignores [tail]: {!Delta} skips
      re-costing unchanged terms whose tails moved exactly when
      [rates] is empty. *)
  weights : current:float -> duration:float -> float array -> unit;
  (** [weights ~current ~duration buf] writes the channel amplitudes
      [w_t(I, D)] into [buf] (length [>= Array.length rates]). *)
  charge : current:float -> duration:float -> float;
  (** The tail-independent part of the interval's contribution. *)
}
(** Exponential-channel decomposition of sigma into per-interval
    terms: besides the [term] contract above,

    {[ term (current, duration, tail)
         = charge ~current ~duration
           + sum_t (w_t (current, duration) *. exp (-. rates.(t) *. tail)) ]}

    for {e any} observation instant at or after the interval's end —
    [tail] is wall-clock time from interval end to observation, and the
    identity holds across idle gaps too (rest only decays the channels,
    it forces nothing).  Exposing the channel structure is what lets
    {!Periodic} telescope identical repeated cycles into per-channel
    geometric series and advance a whole mission in O(1) per cycle.
    Models whose sigma is a sum of such terms from a full battery:
    ideal and Peukert (no channels), KiBaM (one channel, the
    diagonalized bound-well disequilibrium; see DESIGN.md §11),
    Rakhmatov–Vrudhula (one channel per truncated series term).  The
    diffusion PDE has no finite channel set and is a {!stepper}
    instead. *)

type lane_group = {
  width : int;
  (** Lanes in the group: 1 or 4. *)
  state : float array;
  (** [width] states of [state_dim] floats, node-major: float [x] of
      lane [l] is [state.(x * width + l)]. *)
  current : float array;
  (** Per lane: the current of the span [span l] starts, written by the
      caller.  Floats pass through these arrays rather than as
      arguments, which a closure call would box. *)
  duration : float array;
  (** Per lane: that span's duration, positive. *)
  sigma : float array;
  (** Per lane: written by [observe l]. *)
  load : int -> float array -> unit;
  (** [load l params] puts a fully charged device, described by its
      stepper's [params], into lane [l]. *)
  span : int -> int;
  (** [span l] starts lane [l]'s next constant-current span and returns
      its step count ([>= 1]).  It only sets the span's coefficients:
      the integration, the matrix's factorization included, runs in
      [run], where the lanes' work overlaps. *)
  run : int -> unit;
  (** [run s] advances every lane by [s] steps.  A lane run through
      exactly its span's step count, in one run or in several, ends in
      the same state, bit for bit, at either width; the caller keeps
      the count, and ignores idle lanes. *)
  observe : int -> unit;
  (** [observe l] writes lane [l]'s sigma into [sigma.(l)]. *)
}
(** Lockstep integration of [width] independent devices, so that their
    dependent chains of float operations overlap.  Each lane performs
    exactly its device's operations, in the same order, whatever the
    width and the other lanes; nothing is shared between lanes. *)

type stepper = {
  state_dim : int;
  (** Number of floats in one device's state. *)
  params : float array;
  (** This device's parameters, in the layout [load] reads. *)
  group : int -> lane_group;
  (** [group w] is a fresh group of [w] lanes, 1 or 4.  Any device
      whose stepper has the same [state_dim] may be loaded into it.
      Groups are not shared across domains.
      @raise Invalid_argument on any other width. *)
}
(** Sequential integration, for stateful models whose sigma does {e
    not} decompose per interval (the diffusion PDE).  {!Periodic}
    groups devices by [state_dim] alone, which holds while the
    diffusion PDE is the only stepper: a second kind of stepper needs a
    group key of its own. *)

type kernel =
  | Channels of channels
  | Stepper of stepper
(** A model's one fast view. *)

type t = {
  name : string;
  (** Short identifier used in reports. *)
  kernel : kernel;
}

val sigma : t -> Profile.t -> at:float -> float
(** [sigma m profile ~at] is the apparent charge lost by time [at]
    (minutes).  Load beyond [at] is ignored: an interval straddling
    [at] counts up to [at].  For {!Channels} it is the compensated sum
    of the terms of the intervals up to [at], each with
    [tail = max 0 (at - start - duration)] ({!Profile.iter_until}
    order); for a {!Stepper} it integrates a group of one lane from the
    full state through every idle gap (at current 0) and every
    interval, clipped at [at], and observes.  Each call counts one
    [sigma_evals] in the domain's {!Batsched_numeric.Probe}.

    Sigma need {e not} be monotone in [at]: for the
    Rakhmatov–Vrudhula model the unavailable-charge component recovers
    during rest (or light load after heavy load), so sigma can dip —
    which is why lifetime estimation looks for the {e first} crossing
    of alpha.
    @raise Invalid_argument on negative [at]. *)

val sigma_end : t -> Profile.t -> float
(** [sigma_end m p] evaluates sigma at the end of the profile — the
    paper's "battery capacity used" figure of merit for a schedule. *)
