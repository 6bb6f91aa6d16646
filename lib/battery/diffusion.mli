(** Finite-difference reference simulation of the one-dimensional
    diffusion battery — the physical model the Rakhmatov–Vrudhula
    analytical expression (the paper's Eq. 1) is derived from.

    Electroactive species of charge-density [u(x, t)] diffuse across a
    normalized electrolyte [x in [0, 1]]:

    {[ du/dt = D d2u/dx2,   D = beta^2 / pi^2 ]}

    with the load drawn as a flux at the electrode ([x = 0]) and a
    sealed far wall ([x = 1]).  Initially [u = alpha] uniformly (in
    charge-per-unit-length units with the width normalized out).  The
    apparent charge lost is

    {[ sigma(t) = alpha - u(0, t) ]}

    which reduces to the drawn charge at rest equilibrium and reaches
    [alpha] exactly when the electrode is depleted — the same
    death/recovery semantics as the analytical model, without the
    series truncation or the interval bookkeeping.  Crank–Nicolson in
    time, second-order flux boundaries, tridiagonal solves.

    This module exists to {e validate} {!Rakhmatov} against first
    principles (see the "validation" experiment); it is orders of
    magnitude slower and should not drive the scheduler. *)

type params = {
  alpha : float;      (** capacity parameter, mA*min; > 0 *)
  beta : float;       (** diffusion parameter, min^(-1/2); > 0 *)
  nodes : int;        (** spatial grid points, >= 8 *)
  dt : float;         (** time step, minutes; > 0 *)
}

val default_params : params
(** Itsy-matched: alpha 40375, beta 0.273, 64 nodes, dt = 0.02 min. *)

val make_params :
  ?nodes:int -> ?dt:float -> alpha:float -> beta:float -> unit -> params
(** @raise Invalid_argument outside the ranges above. *)

val sigma : ?params:params -> Profile.t -> at:float -> float
(** Simulate the PDE from time 0 through [at] under the profile's load
    and return [alpha - u(0, at)].
    @raise Invalid_argument on negative [at], or when [dt] is so small
    that a span of the profile needs 2^53 steps or more. *)

val surface_density : ?params:params -> Profile.t -> at:float -> float
(** [u(0, at)] itself (the battery dies when it reaches 0). *)

val stepper : params -> Model.stepper
(** Checkpointable integration context: state is the charge-density
    grid ([nodes] floats).  Because each interval is integrated
    independently of absolute time, restoring a snapshot and
    re-integrating a suffix is bit-identical to a from-scratch
    integration — which is what makes the delta evaluator's
    checkpointed path exact.  Its lane view steps four devices of one
    grid size in lockstep, each lane bit-identical to [advance]
    (DESIGN.md §11.2).  Every path raises [Invalid_argument] on a span
    of 2^53 steps or more. *)

val model : ?params:params -> unit -> Model.t
(** Packaged as a {!Model.t} named ["diffusion-pde"], whose kernel is
    the checkpointed {!stepper} (no per-interval decomposition exists for
    the PDE). *)
