(** Log-bucketed mergeable histograms (HDR-style).

    Each power-of-two octave is split into 16 equal sub-buckets, giving
    a uniform relative resolution of ~6% over [2^-64, 2^64] — wide
    enough for nanosecond latencies and batch counts alike without
    configuration.  Merging adds bucket counts element-wise, so totals
    are independent of merge order and of which domain observed what:
    the same determinism argument as {!Probe}.

    {2 Registry}

    Hot paths do not hold histogram values; they call {!observe} with a
    metric name, which records into a per-domain shard (lock-free on
    the record path).  {!Pool} drains a worker's shard into a global
    table when the worker leaves a parallel region or job, beside its
    {!Probe} counters, and {!snapshot} drains the calling domain.  The
    registry is off by default. *)

type t

val create : unit -> t

val record : t -> float -> unit
(** Record one observation.  Non-positive values land in the lowest
    bucket; no value is ever rejected. *)

val copy : t -> t

val count : t -> int

val sum : t -> float

val max_value : t -> float
(** Exact observed maximum; [nan] when empty. *)

val quantile : t -> float -> float
(** [quantile h p] for [p] in [0, 100], via cumulative bucket walk.
    Accurate to half a bucket width (relative error < ~3%), clamped to
    the observed min/max; [p = 0] and [p = 100] return the exact
    observed extrema; [nan] when empty.
    @raise Invalid_argument if [p] is outside [0, 100]. *)

val bucket_upper : int -> float
(** Upper edge of bucket [i]; [infinity] for the top bucket. *)

val nonzero_buckets : t -> (int * int) list
(** [(index, count)] for every populated bucket, ascending by index. *)

(** {2 Named registry with per-domain shards} *)

val observing : bool ref
(** Whether the registry records.  An observation site tests it before
    calling {!observe}, so a disabled site costs one load and a branch:
    no call, no boxed float.  Read, never write. *)

val enable : unit -> unit
(** Turn the registry on. *)

val disable : unit -> unit
(** Turn the registry off.  Recorded data is kept until {!reset}. *)

val observe : string -> float -> unit
(** Record [v] under [name] in the calling domain's shard.  No-op when
    the registry is disabled. *)

val drain_local : unit -> unit
(** Merge the calling domain's shard into the global table and clear
    it.  Called by [Pool] workers when they leave a region or job; safe
    to call anywhere. *)

val snapshot : unit -> (string * t) list
(** Drain the calling domain, then return a deep copy of the merged
    table sorted by name.  Worker-domain shards are already merged when
    their region or job ends, so after the pool quiesces this is
    complete. *)

val reset : unit -> unit
(** Drop all recorded data (calling domain's shard + merged table). *)
