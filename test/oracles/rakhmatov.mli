(** Reference for [Model.sigma] on [Batsched_battery.Rakhmatov.model]. *)

val sigma_reference :
  ?terms:int -> ?beta:float -> Batsched_battery.Profile.t -> at:float ->
  float
(** The seed implementation of Eq. 1: a truncated profile copy and the
    uncached term-by-term {!Series.kernel_direct}.  Same contract as
    the shipped [sigma], which memoizes per-interval contributions in
    suffix-time coordinates and must agree to 1e-9 (relative).
    @raise Invalid_argument on negative [at]. *)
