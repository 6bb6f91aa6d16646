(** Anytime-event stream: a JSONL file tracing search convergence.

    Each record is one JSON object on its own line with two standard
    fields — ["kind"] (the record type) and ["t_ns"] (monotonic
    nanoseconds since the stream was created) — plus whatever the
    emission site attaches.  The schema per kind is documented in
    EXPERIMENTS.md; [basched report] renders a stream into a summary
    table and [basched watch] tails one live.

    A file stream is {e live}: every record is written (one whole
    line, under the stream mutex, flushed) at emission, so an external
    tailer sees convergence while the run is in flight — at worst it
    observes one torn trailing line mid-write, never interleaved ones.
    Emission is safe from multiple domains.  The {!noop} stream makes
    every call free; hot call sites should still guard with
    {!is_active} to avoid building the field list. *)

type field = I of int | F of float | S of string | B of bool

type record = {
  seq : int;          (** emission order, 0-based *)
  t_ns : int64;       (** monotonic ns since stream creation *)
  kind : string;
  fields : (string * field) list;
}

type t

val noop : t
(** The disabled stream: {!emit} and {!close} are no-ops. *)

val is_active : t -> bool

val now_ns : unit -> int64
(** The stream's monotonic clock, for callers that want to attach
    duration fields consistent with [t_ns]. *)

val create : string -> t
(** [create path] opens (truncates) [path] for writing; records reach
    the file as they are emitted.
    @raise Sys_error if the file cannot be opened. *)

val create_memory : unit -> t
(** An active stream with no file: records accumulate for {!snapshot}
    only.  Used by the run ledger to capture a convergence curve when
    no [--events] file was requested. *)

val create_channel : out_channel -> t
(** An active stream rendering each record live to a {e borrowed}
    channel and retaining nothing in memory — the sink for
    long-running daemons ([basched serve] writes responses to stdout
    this way), where accumulating records would grow without bound.
    {!snapshot} returns [[]]; {!close} flushes but does not close the
    channel. *)

val with_tags : t -> (string * field) list -> t
(** [with_tags t tags] is a derived stream sharing [t]'s clock, mutex
    and sink, with [tags] appended to every record's fields — how the
    serve daemon stamps one request's search events with its request
    id on the shared response stream.  Derived streams nest (tags
    accumulate); {!close} on a derived stream is a no-op — close the
    underlying [t] instead. *)

val emit : t -> string -> (string * field) list -> unit
(** [emit t kind fields] appends one record.  Non-finite floats are
    written as [null] so the stream stays parseable JSON. *)

val snapshot : t -> record list
(** All records emitted so far, oldest first.  [[]] on {!noop}. *)

val close : t -> unit
(** Flush and close the underlying channel (no-op for
    {!create_memory} streams); double-close raises like [close_out]
    does. *)
