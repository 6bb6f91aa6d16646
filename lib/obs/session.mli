(** One telemetry session per run of [basched], a [battsim] subcommand
    or the bench harness.

    The session owns the [--stats] / [--trace] / [--metrics] /
    [--ledger] flags and their environment fallbacks, sets up the span
    sink and the histogram registry those outputs need, and writes the
    outputs when the run ends.  [--events] stays with the binaries that
    stream events; [basched serve] takes {!stats_arg} and {!metrics_arg}
    and writes its own outputs. *)

type flags = {
  stats : bool;  (** counter table and per-phase timing report *)
  trace : string option;  (** Chrome trace-event JSON file *)
  metrics : string option;  (** OpenMetrics exposition file *)
  ledger : string option;  (** ledger directory for the run manifest *)
}

val flags : flags Cmdliner.Term.t
(** The four flags.  The bench harness parses its arguments by hand
    and builds the record itself. *)

val stats_arg : bool Cmdliner.Term.t

val metrics_arg : string option Cmdliner.Term.t

val env_opt : string -> string option
(** The environment variable's value, set-but-empty read as unset. *)

type t

val start : flags -> t
(** Apply [BATSCHED_LOG]; fill unset flags from [BATSCHED_STATS] ([1]
    or [true]), [BATSCHED_METRICS] and [BATSCHED_LEDGER]; create an
    active sink for the report or a trace and turn the histogram
    registry on for the report or metrics; start the manifest's wall
    clock. *)

val sink : t -> Sink.t

val ledger : t -> string option
(** The ledger directory in effect, from the flag or the environment. *)

val finish : t -> manifest:(wall_s:float -> Ledger.spec) -> unit
(** Write the outputs in effect, in this order, each but the report
    followed by a one-line notice on stdout: the report (after a blank
    line), the trace, the exposition and the manifest.  [manifest] is
    called only when a ledger is in effect, with the seconds since
    {!start}; a failed ledger write warns on stderr and does not fail
    the run. *)
