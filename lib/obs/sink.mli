(** Span-timer sink: monotonic-clock phase timing with a no-op mode.

    A sink is either {!noop} — every {!with_span} call reduces to one
    branch and a direct call, no clock reads, no allocation — or active,
    in which case spans are stamped with the monotonic clock and added
    to the sink's own list under its mutex, tagged with the recording
    domain's {!Batsched_numeric.Pool.worker_index}.  A span therefore
    belongs to the sink it was recorded on, whichever domain recorded
    it and however many sinks are alive; nothing is buffered per domain
    and nothing needs flushing at pool joins.

    Timing never feeds back into the computation, so instrumented runs
    return bit-identical schedules and sigma — property-tested in
    [test/test_obs.ml]. *)

type span = {
  track : int;        (** pool worker index; [0] is the main domain *)
  name : string;      (** phase name, e.g. ["window"], ["choose"] *)
  start_ns : int64;   (** monotonic-clock start *)
  dur_ns : int64;     (** duration, nanoseconds *)
  alloc_words : float;
      (** minor-heap words allocated by this domain during the span
          ([Gc.minor_words] delta); nested spans double-count their
          children, like [dur_ns] does *)
}

type t

val noop : t
(** The disabled sink: {!with_span} is a tail call to the thunk. *)

val create : unit -> t
(** A fresh active sink.  Records its creation time as the trace
    epoch. *)

val with_span : t -> string -> (unit -> 'a) -> 'a
(** [with_span t name f] runs [f ()]; on an active sink it records a
    [name] span around the call (also when [f] raises). *)

val spans : t -> span list
(** All spans recorded on the sink so far, sorted by track, then start
    time, then duration decreasing (an enclosing span precedes children
    sharing its start).  Empty for {!noop}. *)

val epoch_ns : t -> int64
(** The sink's creation timestamp — the zero point of trace export.
    [0L] for {!noop}. *)
