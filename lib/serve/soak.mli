(** Heterogeneous load generation and in-process soak runs.

    The mix cycles graph shapes (chain, diamond, fork-join), battery
    models, and algorithms, with 10x budget spread inside each
    algorithm family — the skew that idles the workers of a static
    split and that an executor dealing work on demand absorbs.  The
    same generator feeds the
    [serve-soak] bench scenario, the CI smoke fixture
    ([basched serve --gen]), and the unit tests. *)

type result = {
  n : int;
  counts : Daemon.counts;
  wall_s : float;
  req_per_s : float;
  queue_p50_ms : float;
  queue_p99_ms : float;
  latency_p50_ms : float;
  latency_p99_ms : float;
}

val mixed_lines : n:int -> seed:int -> string list
(** [n] mixed request lines (wire format, parseable by
    {!Request.of_json}), deterministic for a fixed seed. *)

val fixture_lines : n:int -> seed:int -> string list
(** As {!mixed_lines}, but the last two lines are a deliberately
    long-running annealing request (id ["slow-1"]) and its
    cancellation — a smoke fixture that hangs rather than passes if
    in-flight cancellation breaks. *)

val run :
  ?seed:int ->
  ?events:Batsched_obs.Events.t ->
  ?capacity:int ->
  pool:Batsched_numeric.Pool.t ->
  n:int ->
  unit ->
  result
(** Run [n] mixed requests through an in-process daemon on [pool]
    (admission capacity defaults to [n], so nothing is rejected) and
    report throughput and latency quantiles.  [events] defaults to
    noop: the soak measures scheduling, not serialization. *)

val result_to_json : result -> string
(** One-object JSON rendering, for the CI soak artifact. *)
