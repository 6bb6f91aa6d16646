(** Synthesis of design-point sets from scaling laws.

    The paper derives its data sets from voltage scaling factors: task
    currents scale with the {e cube} of the factor (dynamic power ~ V^2 f
    with f ~ V) and execution times scale inversely (Sec. 4.2 for G3,
    Sec. 5 for G2, where the law is exact against the published
    tables).  These builders regenerate such sets from a base design
    point, for the generators and for cross-checking the paper data. *)

val cube_law :
  base_current:float -> base_duration:float -> factors:float list ->
  unit -> (float * float) list * float list
(** [cube_law ~base_current ~base_duration ~factors ()] returns
    [(current, duration) pairs, voltages] where factor [s] (relative to
    the base voltage) yields current [base_current * s^3], duration
    [base_duration / s] and voltage [s], in units of the base voltage.
    This is G2's exact law (factors 2.5, 1.66, 1.25, 1 relative to
    DP4).
    @raise Invalid_argument on non-positive inputs or empty factors. *)

val linear_duration_law :
  base_current:float -> fastest_duration:float -> slowest_duration:float ->
  factors:float list -> unit -> (float * float) list * float list
(** Variant matching G3's published table: currents follow the cube law
    on [factors] (largest factor = fastest point) while durations are
    linearly interpolated between [fastest_duration] and
    [slowest_duration] across the points in factor order.  (The G3
    table's durations are not an exact inverse law; see DESIGN.md.)
    @raise Invalid_argument on non-positive inputs, empty factors, or
    [fastest_duration >= slowest_duration]. *)

val g3_factors : float list
(** The paper's G3 scaling factors: 1, 0.85, 0.68, 0.51, 0.33. *)

val g2_factors : float list
(** The paper's G2 scaling factors: 2.5, 1.66, 1.25, 1. *)
