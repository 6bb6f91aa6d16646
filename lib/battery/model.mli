(** Battery model interface.

    A model maps a discharge profile and an observation instant to the
    *apparent charge lost* sigma (mA*min).  A battery with capacity
    parameter alpha dies at the first instant where sigma reaches alpha.
    Five implementations ship with the library: {!Ideal}, {!Peukert},
    {!Rakhmatov} (the paper's cost function), {!Kibam} and the
    {!Diffusion} PDE reference.

    Besides [sigma], a model offers up to three optional views of the
    same function, each read by the evaluator it was built for:
    [incremental] and [stepper] by {!Delta} (local-search moves),
    [decay] and [stepper] by {!Periodic} (repeated missions), which
    sweeps steppers four at a time through their lane view. *)

type incremental = {
  term : current:float -> duration:float -> tail:float -> float;
  (** Per-interval contribution to sigma {e at the end of a sequential
      profile}, in suffix-time coordinates: [tail] is the total load
      duration scheduled strictly after the interval.  The contract is

      {[ sigma (sequential ps) ~at:(length (sequential ps))
           = sum_k (term ~current:I_k ~duration:D_k ~tail:tail_k) ]}

      (up to float accumulation noise), where
      [tail_k = sum_{j>k} D_j].  The decomposition holds for the models
      whose sigma is a sum of independent per-interval terms at the
      observation instant — which is exactly what makes delta
      evaluation of local-search moves possible: an adjacent swap
      perturbs two terms, a duration change at position [i] perturbs
      the terms at [0..i] only.  A term with [duration = 0] must be
      exactly [0.].  Only meaningful for gapless back-to-back profiles
      observed at their makespan. *)
  tail_sensitive : bool;
  (** Whether [term] actually reads [tail].  [false] (ideal, Peukert —
      sigma is a makespan-independent sum) lets the delta evaluator
      skip recomputing unchanged terms whose tails moved; [true]
      (Rakhmatov–Vrudhula, KiBaM — the recovery/relaxation component
      depends on how long the interval has to relax before the
      observation instant) forces the [0..i] prefix walk on duration
      changes. *)
}
(** First-class incremental evaluation interface.  See
    {!Delta} for the mutable schedule state built on top of it. *)

type stepper_ops = {
  start : float array -> unit;
  (** Write the fully-charged initial state into the buffer. *)
  advance : float array -> current:float -> duration:float -> unit;
  (** Evolve the state in place through one constant-current interval.
      [duration = 0] must leave the state bit-identical. *)
  observe : float array -> float;
  (** Sigma at the instant the state describes. *)
}
type decay = {
  rates : float array;
  (** The distinct relaxation rates [lambda_t] (1/minutes) of the
      model's memory, all [> 0].  Empty for memoryless models (ideal,
      Peukert). *)
  weights : current:float -> duration:float -> float array -> unit;
  (** [weights ~current ~duration buf] writes the channel amplitudes
      [w_t(I, D)] into [buf] (length [>= Array.length rates]). *)
  charge : current:float -> duration:float -> float;
  (** The tail-independent part of the interval's contribution. *)
}
(** Exponential-channel decomposition of the per-interval term: the
    contract is

    {[ term ~current ~duration ~tail
         = charge ~current ~duration
           + sum_t (w_t (current, duration) *. exp (-. rates.(t) *. tail)) ]}

    for {e any} observation instant at or after the interval's end —
    [tail] is wall-clock time from interval end to observation, and the
    identity holds across idle gaps too (rest only decays the channels,
    it forces nothing).  This is strictly stronger than {!incremental}
    (which only speaks at the makespan of a gapless profile): exposing
    the channel structure is what lets {!Periodic} telescope identical
    repeated cycles into per-channel geometric series and advance a
    whole mission in O(1) per cycle.  Models whose sigma is a sum of
    such terms from a full battery: ideal and Peukert (no channels),
    KiBaM (one channel, the diagonalized bound-well disequilibrium),
    Rakhmatov–Vrudhula (one channel per truncated series term).  The
    diffusion PDE has no finite channel set and uses {!stepper}
    instead. *)

(** One integration context.  The float-array state representation is
    what lets {!Delta} snapshot and restore checkpoints with flat
    [Array.blit]s, no per-checkpoint allocation. *)

val lane_count : int
(** Lanes in a {!lane_group}: 4. *)

type lane_group = {
  state : float array;
  (** [lane_count] states of [state_dim] floats, node-major: float [x]
      of lane [l] is [state.(x * lane_count + l)], and reads as
      float [x] of a one-device state. *)
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
      lane view's [params], into lane [l] (the one-device [start]). *)
  span : int -> int;
  (** [span l] starts lane [l]'s next constant-current span and returns
      its step count ([>= 1]). *)
  run : int -> unit;
  (** [run s] advances every lane by [s] steps.  Running a lane through
      exactly its span's step count leaves its state bit-identical to
      the one-device [advance] of that span; the caller keeps the
      count, and ignores idle lanes. *)
  observe : int -> unit;
  (** [observe l] writes lane [l]'s sigma into [sigma.(l)],
      bit-identical to the one-device [observe]. *)
}
(** Lockstep integration of {!lane_count} independent devices, so that
    their dependent chains of float operations overlap.  Each lane
    performs exactly its device's one-device operations, in the same
    order; nothing is shared between lanes. *)

type lanes = {
  params : float array;
  (** This device's parameters, in the layout [load] reads. *)
  group : unit -> lane_group;
  (** A fresh group.  Any device whose stepper has the same
      [state_dim] may be loaded into it. *)
}
(** A device's lane view: how {!Periodic} sweeps it together with
    others. *)

type stepper = {
  state_dim : int;
  (** Number of floats in a state vector. *)
  fresh : unit -> stepper_ops;
  (** Allocate a context (scratch buffers etc.).  Contexts are not
      shared across domains; each evaluator calls [fresh] once. *)
  lanes : lanes;
  (** The lane view.  {!Periodic} groups devices by [state_dim] alone,
      which holds while the diffusion PDE is the only stepper: a second
      kind of stepper needs a group key of its own. *)
}
(** Checkpointable sequential integration, for stateful models whose
    sigma does {e not} decompose per interval (the diffusion PDE).
    {!Delta} snapshots the state every k intervals so a candidate move
    at position [i] re-integrates only the suffix from the preceding
    checkpoint — O(n/k + stride) instead of O(n) per move — while
    remaining bit-identical to a from-scratch integration. *)

type t = {
  name : string;
  (** Short identifier used in reports. *)
  sigma : Profile.t -> at:float -> float;
  (** [sigma profile ~at] is the apparent charge lost by time [at]
      (minutes).  Load beyond [at] is ignored.  Note that sigma need
      {e not} be monotone in [at]: for the Rakhmatov–Vrudhula model the
      unavailable-charge component recovers during rest (or light load
      after heavy load), so sigma can dip — which is why lifetime
      estimation looks for the {e first} crossing of alpha. *)
  incremental : incremental option;
  (** The per-interval decomposition of [sigma] at the makespan, when
      the model admits one (ideal, Peukert, Rakhmatov–Vrudhula, KiBaM
      — for KiBaM the two-well affine maps diagonalize in suffix-time
      coordinates, see DESIGN.md §11). *)
  stepper : stepper option;
  (** Checkpointable integration for models with state but no
      per-interval decomposition (the diffusion PDE).  The delta
      evaluator prefers [incremental], then [stepper], then falls back
      to a counted full re-evaluation per candidate move. *)
  decay : decay option;
  (** Exponential-channel structure of the per-interval term, when the
      model admits one; {!Periodic}'s linear-time endurance kernel
      prefers [decay], then [stepper], then falls back to the quadratic
      full-history path. *)
}

val sigma_end : t -> Profile.t -> float
(** [sigma_end m p] evaluates sigma at the end of the profile — the
    paper's "battery capacity used" figure of merit for a schedule. *)
