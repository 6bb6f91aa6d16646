(** Streaming survival analytics over cycles-to-death.

    An accumulator holds everything the fleet reports — survival
    staircase, lifetime quantiles, per-model tallies — in integer
    counters of fixed size (O(horizon + models)), so memory is
    independent of the number of devices folded in.  Because every
    field is an exact integer, {!merge} is associative and commutative
    and a sharded run folds to bit-identical results at any pool size
    or partition — the fleet engine's determinism rests on this.

    Lifetimes are complete cycles; a device alive at the horizon is
    {e censored} (lifetime known only as [>= horizon]), never counted
    as a death. *)

type t

val create : horizon:int -> models:string array -> t
(** Fresh accumulator for lifetimes observed against [horizon] and the
    given model labels (indexed as in the fleet spec).
    @raise Invalid_argument if [horizon < 1]. *)

val observe :
  t -> model_index:int -> Batsched_battery.Periodic.outcome -> unit
(** Fold one device's outcome in.  [Censored h] must carry the
    accumulator's horizon.
    @raise Invalid_argument on a foreign horizon or model index. *)

val merge : into:t -> t -> unit
(** Element-wise counter addition.
    @raise Invalid_argument on mismatched horizon or models. *)

val n : t -> int
(** Devices folded in. *)

val censored : t -> int

val mean_cycles : t -> float
(** Mean observed lifetime (censored devices enter at the horizon, so
    this is a lower bound on the true mean); [nan] when empty. *)

val per_model : t -> (string * int * int * float) array
(** Per-model [(label, devices, censored, mean observed lifetime)] in
    spec order; the mean is [nan] for a model that drew no devices. *)

val quantile : t -> float -> int
(** [quantile t p] for [p] in [0, 100]: the smallest lifetime [c] such
    that at least [p]% of devices died within [c] cycles — exact, from
    the integer death counts, not a sketch.  When the rank falls into
    the censored mass the true quantile is unknown and the horizon is
    returned (a lower bound).
    @raise Invalid_argument outside [0, 100] or on an empty
    accumulator. *)

val survival : t -> (int * float) list
(** The survival staircase: pairs [(c, s)] where [s] is the fraction
    of devices whose lifetime is [>= c] cycles, one pair per lifetime
    at which deaths occurred (plus [(0, 1.)]), ascending.  Censored
    devices stay in the at-risk set throughout. *)

val checksum : t -> string
(** FNV-1a 64 over the canonical counter encoding, rendered as
    ["sv1-%016x"].  Two accumulators agree on the checksum iff every
    counter matches — the value CI pins to catch determinism
    regressions. *)

val to_json : t -> Buffer.t -> unit
(** Append the full report as one JSON object: totals, quantiles
    (p1/p5/p50/p90/p99), the survival staircase, per-model tallies and
    the checksum.  Deterministic: a function of the counters only. *)
