(** Persistent executor over OCaml 5 domains.

    A pool owns a set of long-lived helper domains (spawned lazily on
    first parallel use, so a never-used pool costs nothing).  A
    parallel region is dealt from one atomic cursor: the calling domain
    and every helper claim small index chunks, in index order, until
    the range is exhausted, so a slot that draws cheap items just
    claims again and a cost skew evens out without a static stride.
    One region runs at a time per pool; idle helpers sleep on a
    condition variable, and between regions the pool consumes no CPU.

    {2 Determinism}

    [map_*] returns results in input order, regardless of which domain
    computed what, and the work function sees exactly the same
    arguments as a sequential [map] — parallel and sequential runs are
    bit-identical for pure (or domain-local-state-only) functions, at
    any pool size.  If several items raise, the exception of the
    {e smallest index} is re-raised, matching the first failure a
    sequential scan would surface.

    {2 Nesting}

    A [map] issued from inside a worker of another region (or from a
    {!submit}ted job) runs sequentially on that worker: composing a
    multistart fan-out with a window-sweep fan-out cannot oversubscribe
    the machine.

    {2 Lifecycle}

    Worker domains persist until {!shutdown} (or process exit).  The
    process-wide helper-domain count is capped well below the runtime's
    domain limit; pools created past the cap degrade gracefully to
    sequential execution.  Prefer {!with_pool} for scoped use. *)

type t

val sequential : t
(** The size-1 pool: every [map] runs inline, no domains spawned. *)

val create : int -> t
(** [create size] requests up to [size] concurrent domains per region
    (the calling domain works too, as worker 0).  Workers are spawned
    on first parallel use, not here.
    @raise Invalid_argument if [size < 1]. *)

val recommended : unit -> int
(** [Domain.recommended_domain_count ()] — the runtime's estimate of
    useful parallelism on this machine. *)

val create_recommended : unit -> t
(** [create (recommended ())]. *)

val size : t -> int
(** The requested degree of parallelism. *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** Order-preserving parallel map, dealt in chunks from one cursor. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** As {!map_array}, on lists.  Sequential and nested calls take a
    direct list path (no intermediate arrays); parallel calls convert
    once. *)

val for_range : t -> n:int -> (int -> int -> unit) -> unit
(** [for_range pool ~n f] covers [0, n)] with disjoint half-open spans
    [f lo hi], sized by the pool and possibly concurrent.  [f] must
    only write state disjoint per index (e.g. structure-of-arrays
    columns).  Sequential and nested calls run [f 0 n] inline.  If
    spans raise, the exception of the smallest [lo] is re-raised. *)

val submit : t -> (unit -> unit) -> unit
(** [submit pool job] hands [job] to an idle worker and returns
    immediately; jobs run with region nesting in effect, so parallel
    regions opened inside a job degrade to sequential.  Exceptions
    escaping [job] are dropped — jobs own their error handling.  On a
    pool with no helper domains (size 1, or budget exhausted) the job
    runs inline before [submit] returns.  Jobs still queued at
    {!shutdown} are discarded. *)

val shutdown : t -> unit
(** Stop and join the pool's worker domains (finishing whatever task
    each is running) and return them to the process-wide budget.
    Idempotent.  Subsequent [map]s on the pool run sequentially. *)

val with_pool : int -> (t -> 'a) -> 'a
(** [with_pool size f] is [f (create size)] with a guaranteed
    {!shutdown} on exit ([Fun.protect]). *)

(** {2 Observability}

    [map_array]/[map_list]/[for_range] count every item into
    {!Probe.pool_tasks} and every region that actually fans out into
    {!Probe.pool_regions}; chunks claimed by helper domains (not the
    calling domain) count into {!Probe.pool_steals}.  Each participating
    worker drains its {!Probe} counters and {!Histogram} shard before
    the region join (and after each job), so both are complete in
    {!Probe.totals} and {!Histogram.snapshot} once a region or job has
    completed.  When {!Histogram.observing} is on, every participant
    also observes its busy-fraction for the region as
    ["pool/occupancy"]. *)

type worker_stat = {
  items : int;  (** region items executed by this slot *)
  chunks : int;  (** chunks claimed from region cursors *)
  jobs : int;  (** {!submit}ted jobs executed *)
  busy_s : float;  (** wall-clock seconds spent executing *)
}

val worker_stats : t -> worker_stat array
(** Per-slot counters since the executor started: index 0 is the
    region-calling domains, 1.. the persistent workers.  Empty if the
    executor has not started (no parallel use yet, or already shut
    down).  Counters are read racily — totals may trail reality by a
    task while workers are mid-flight. *)

val live_workers : t -> int
(** Helper domains currently alive for this pool (0 before first
    parallel use and after {!shutdown}). *)

val worker_index : unit -> int
(** The calling domain's worker slot within the current parallel
    region or job ([0] = the calling domain), [0] outside any region.
    Used to tag telemetry records with which worker produced them. *)

val set_task_delay : (unit -> unit) option -> unit
(** Test-only: run the given thunk before every chunk execution, on
    whichever domain executes it.  Dilating chunks this way forces
    interleavings between the calling domain and the helpers that are
    hard to hit on few cores; the tests use it to check determinism
    and exception order under them.  [None] removes the hook. *)
