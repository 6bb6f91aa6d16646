(** Prometheus/OpenMetrics text exposition of process telemetry.

    Renders every [Batsched_numeric.Probe] counter (fixed fields and
    named counters) as samples of one counter family
    [batsched_counter_total{name="..."}], every registered
    [Batsched_numeric.Histogram] as its own histogram family
    (cumulative [le] buckets, [_sum], [_count]), and the
    [Gc.quick_stat] gauges.  The exposition ends with [# EOF] per the
    OpenMetrics spec.

    Histogram names are sanitized into metric names (characters
    outside [[a-zA-Z0-9_]] become ['_']), so ["span/choose"] exports
    as [batsched_span_choose]. *)

val write_file : string -> unit
(** [write_file path] writes one exposition of the current
    [Probe.totals], [Histogram.snapshot] and [Gc.quick_stat] to [path]
    (truncating).  Label values escape exactly backslash, double-quote
    and line-feed, never the JSON-only escapes (tab, [u]-hex) that
    exposition parsers reject. *)
