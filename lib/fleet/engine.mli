(** Sharded fleet endurance runs.

    Drives {!Sampler} and {!Batsched_battery.Periodic.Batch} across a
    domain pool: the device index range is dealt to workers in spans
    claimed from the pool's cursor, each span materializes its devices
    in fixed-size blocks, estimates their lifetimes with the O(cycles)
    batch kernel, and folds outcomes into a span-local {!Survival}
    accumulator merged into the run total under a mutex at span end.
    A block keeps only its devices' model indices and results, and
    nothing per device outlives its block — peak memory is
    O(pool * (horizon + block)) — and because device samples are
    index-pure and the accumulators are integer-exact, the returned
    {!Survival.t} is bit-identical at every pool size. *)

val run :
  ?pool:Batsched_numeric.Pool.t ->
  ?events:Batsched_obs.Events.t ->
  ?block:int ->
  spec:Spec.t ->
  devices:int ->
  seed:int ->
  unit ->
  Survival.t
(** [run ~spec ~devices ~seed ()] estimates the lifetime of [devices]
    sampled devices.  [pool] defaults to the sequential pool; [block]
    (default 256) is the number of devices compiled per batch-kernel
    call within a span.  Progress is streamed to [events] (kind
    ["fleet-block"], one record per completed block, plus a final
    ["fleet-done"] with the checksum); per-model end-of-life cycle
    counts are observed into the [Batsched_numeric.Histogram] registry as
    ["fleet/eol_cycles/<model>"] when it is enabled, and device/death
    totals are counted into [Batsched_numeric.Probe]'s named counters
    (["fleet/devices"], ["fleet/deaths"], ["fleet/censored"]).
    @raise Invalid_argument on negative [devices] or non-positive
    [block]. *)
