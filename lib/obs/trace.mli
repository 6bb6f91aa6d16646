(** Chrome trace-event export.

    Serializes a sink's spans in the Trace Event Format's JSON-object
    form (complete ["X"] events plus thread-name metadata), which
    [chrome://tracing] and {{:https://ui.perfetto.dev}Perfetto} load
    directly.  One track ([tid]) per pool worker slot: [tid 0] is the
    calling domain, [tid w] the pool's helper in slot [w], which claims
    chunks of a parallel region or runs jobs.  Timestamps are
    microseconds from the sink's creation. *)

val to_string : Sink.t -> string
(** The complete JSON document.  A {!Sink.noop} sink yields a valid
    trace with metadata only. *)

val write : Sink.t -> string -> unit
(** [write sink path] saves {!to_string} to [path].
    @raise Sys_error as [open_out]. *)
