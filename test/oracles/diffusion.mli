(** The diffusion PDE the textbook way, the reference for the fused
    Crank–Nicolson stepper of [Batsched_battery.Diffusion]. *)

val advance_reference :
  dt_max:float -> dee:float -> dx:float -> current:float -> float array ->
  float -> unit
(** [advance_reference ~dt_max ~dee ~dx ~current u span] advances the
    grid [u] across [span] minutes of constant current in
    [ceil (span / dt_max)] equal steps (none for [span <= 0]).  Each
    step forms the explicit half, fills the full tridiagonal system
    (I - dt/2 A) and solves it with {!Tridiag.solve_into}.  The stepper
    factors the matrix once per span and fuses the step into one pass;
    it must reproduce this arithmetic bit for bit. *)

val sigma_reference :
  ?params:Batsched_battery.Diffusion.params -> Batsched_battery.Profile.t ->
  at:float -> float
(** [alpha - u(0, at)] after integrating from the full grid through
    every idle gap (at current 0) and every interval of the profile,
    each span clipped at [at] on the clock ([min t at]) and advanced by
    {!advance_reference}.  The model's [Model.sigma] must match it bit
    for bit.
    @raise Invalid_argument on negative [at]. *)
