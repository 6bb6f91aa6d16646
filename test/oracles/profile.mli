(** [Batsched_battery.Profile] with the two clipped walks the
    references are written over and the library no longer calls:
    {!fold_until} and {!truncate}, thin wrappers over
    [Profile.iter_until] and [Profile.of_intervals].  The references
    read every profile function through this one module. *)

include module type of struct
  include Batsched_battery.Profile
end

val fold_until :
  t ->
  at:float ->
  init:'a ->
  f:('a -> start:float -> duration:float -> current:float -> 'a) ->
  'a
(** [fold_until t ~at ~init ~f] folds over the load up to time [at]
    exactly as {!truncate} would expose it — intervals starting at or
    after [at] are skipped, a straddling interval is clipped to
    [at - start] — but lazily, with no profile copy. *)

val truncate : t -> at:float -> t
(** [truncate p ~at] keeps only load up to time [at], clipping a
    straddling interval. *)
