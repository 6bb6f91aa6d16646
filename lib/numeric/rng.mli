(** Deterministic pseudo-random number generator (SplitMix64).

    Every stochastic component in the repository (graph generators,
    simulated annealing, random search) takes an explicit generator so
    that experiments are reproducible from a single seed. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from an integer seed.  Equal seeds
    yield equal streams. *)

val int : t -> int -> int
(** [int g n] is uniform in [[0, n-1]].  @raise Invalid_argument if
    [n <= 0]. *)

val float : t -> float -> float
(** [float g x] is uniform in [[0, x)]. Requires [x > 0]. *)

val bool : t -> bool
(** Fair coin. *)

val pick : t -> 'a list -> 'a
(** Uniform element of a non-empty list.
    @raise Invalid_argument on the empty list. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
