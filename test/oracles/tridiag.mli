(** Tridiagonal linear systems (Thomas algorithm).

    The general solver, kept as a test reference.  The Crank–Nicolson
    diffusion stepper ([Batsched_battery.Diffusion]) does not call it:
    it factors its constant matrix once per span and fuses each step
    into one pass.  The textbook step the tests build on {!solve_into}
    must match that fused step bit for bit. *)

val solve :
  lower:float array -> diag:float array -> upper:float array ->
  rhs:float array -> float array
(** [solve ~lower ~diag ~upper ~rhs] solves the [n x n] system with
    [diag] (length [n]), [lower] (length [n-1], sub-diagonal) and
    [upper] (length [n-1], super-diagonal).  The inputs are not
    modified.  The algorithm does not pivot; it is stable for the
    diagonally dominant systems produced by diffusion stencils.
    @raise Invalid_argument on inconsistent lengths, [n = 0], or a zero
    pivot. *)

val solve_into :
  lower:float array -> diag:float array -> upper:float array ->
  rhs:float array -> cw:float array -> dw:float array ->
  out:float array -> unit
(** Allocation-free variant: the Thomas sweeps run in caller-provided
    scratch ([cw] length >= [max 1 (n-1)], [dw] length >= [n]) and the
    solution is written to [out] (length >= [n]).  [out] may not alias
    the inputs.  Identical operation order to {!solve} — the two return
    bit-identical solutions.
    @raise Invalid_argument as {!solve}, or on short scratch. *)
