(** The [basched serve] scheduling daemon.

    A daemon batches independent scheduling requests onto one
    {!Batsched_numeric.Pool}: each accepted request
    becomes a pool job, runs its search to completion (or
    cancellation) on a worker domain, and streams its responses as
    tagged {!Batsched_obs.Events} records on a shared output stream —
    the same record shapes single-shot runs emit, plus the daemon's
    own [accepted]/[result]/[cancelled]/[error]/[overloaded]/
    [parse_error]/[serve_done] kinds, every per-request record carrying
    a ["req"] field with the request id.

    {2 Request lifecycle}

    submit → {e admission} (bounded by [capacity]; overflow answers
    [overloaded] immediately) → {e queue} on the pool's injector →
    {e search} on a worker domain (nested parallel regions degrade to
    sequential, so results are bit-identical to a single-shot run with
    the same seed and knobs) → [result] record, or [cancelled] if the
    request's token fired first.  Cancellation tokens are polled at
    anneal-level granularity (once per temperature level; once per
    iteration for the iterative heuristic), so an in-flight cancel
    returns within one level, and the best-so-far work is simply
    dropped.

    Queueing delay and end-to-end latency are recorded into local
    histograms (for {!histograms} and the soak report) and observed as
    ["serve/queue_delay_ms"]/["serve/latency_ms"] when the
    {!Batsched_numeric.Histogram} registry is enabled, so [--stats] and
    [--metrics] pick them up alongside the pool's
    ["pool/occupancy"]. *)

type counts = {
  accepted : int;
  completed : int;
  cancelled : int;
  errors : int;  (** failed requests + unparseable lines *)
  rejected : int;  (** refused at admission *)
}

type t

exception Cancelled
(** Raised inside a request's search when its token fires. *)

val create :
  ?capacity:int ->
  ?stream_search:bool ->
  pool:Batsched_numeric.Pool.t ->
  events:Batsched_obs.Events.t ->
  unit ->
  t
(** [create ~pool ~events ()] makes a daemon submitting onto [pool]
    and answering on [events] (typically
    {!Batsched_obs.Events.create_channel}[ stdout]).  [capacity]
    (default 64) bounds queued-plus-running requests.
    [stream_search] (default true) forwards each request's own search
    convergence records (anneal levels, iterations, trials) onto the
    response stream, tagged with the request id; set it false to
    answer with terminal records only.
    @raise Invalid_argument if [capacity < 1]. *)

val submit : t -> Request.t -> [ `Accepted | `Rejected ]
(** Admit a request; returns as soon as it is queued.  [`Rejected]
    (capacity full) has already emitted the [overloaded] response. *)

val cancel : t -> string -> unit
(** Fire the cancellation token for a request id.  Unknown ids are
    remembered, so a cancel racing ahead of its submit still wins;
    cancelling a finished request is a no-op. *)

val handle_line : t -> string -> unit
(** Parse one wire line and dispatch it (submit or cancel); malformed
    lines answer [parse_error] and count as errors.  Blank lines are
    ignored. *)

val drain : t -> unit
(** Block until no request is queued or running. *)

val run_channel : t -> in_channel -> counts
(** Feed every line of the channel through {!handle_line}, then
    {!drain} and emit a [serve_done] summary record.  The caller still
    owns the pool ({!Batsched_numeric.Pool.shutdown}) and the events
    stream. *)

val counts : t -> counts

val histograms :
  t -> Batsched_numeric.Histogram.t * Batsched_numeric.Histogram.t
(** Copies of the (queueing-delay, end-to-end-latency) histograms, in
    milliseconds. *)
