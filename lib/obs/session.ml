type flags = {
  stats : bool;
  trace : string option;
  metrics : string option;
  ledger : string option;
}

open Cmdliner

let stats_arg =
  Arg.(value & flag
       & info [ "stats" ]
           ~doc:"Print a work-counter table and per-phase timing report.")

let metrics_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Write an OpenMetrics (Prometheus text format) exposition \
                 of all counters, histograms and GC gauges after the run.")

let flags =
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Write a Chrome trace-event JSON file of the run \
                   (chrome://tracing / Perfetto).")
  and ledger =
    Arg.(value & opt (some string) None
         & info [ "ledger" ] ~docv:"DIR"
             ~doc:"Record a run manifest (provenance, outcome, counters) \
                   in this ledger directory.  Inspect with basched runs / \
                   basched profile.")
  in
  Term.(
    const (fun stats trace metrics ledger -> { stats; trace; metrics; ledger })
    $ stats_arg $ trace $ metrics_arg $ ledger)

(* Environment fallbacks, for cram tests and CI where threading flags
   through harnesses is awkward.  A set-but-empty variable reads as
   unset, so `BATSCHED_METRICS= cmd` cancels an outer-scope export
   instead of writing a file named "". *)
let env_opt name =
  match Sys.getenv_opt name with Some "" | None -> None | Some v -> Some v

type t = { flags : flags; sink : Sink.t; wall0 : float }

let start f =
  Log.init_from_env ();
  let or_env v name = match v with Some _ -> v | None -> env_opt name in
  let stats =
    f.stats
    || match Sys.getenv_opt "BATSCHED_STATS" with
       | Some ("1" | "true") -> true
       | _ -> false
  in
  let f =
    { f with
      stats;
      metrics = or_env f.metrics "BATSCHED_METRICS";
      ledger = or_env f.ledger "BATSCHED_LEDGER" }
  in
  (* work counters are always on; the report and the trace need span
     timers, the report and the exposition need histograms *)
  if f.stats || f.metrics <> None then Batsched_numeric.Histogram.enable ();
  { flags = f;
    sink = (if f.stats || f.trace <> None then Sink.create () else Sink.noop);
    wall0 = Unix.gettimeofday () }

let sink t = t.sink

let ledger t = t.flags.ledger

let finish t ~manifest =
  if t.flags.stats then begin
    print_newline ();
    print_string (Report.to_string t.sink)
  end;
  Option.iter
    (fun out ->
      Trace.write t.sink out;
      Printf.printf
        "wrote trace to %s (load it in chrome://tracing or ui.perfetto.dev)\n%!"
        out)
    t.flags.trace;
  Option.iter
    (fun out ->
      Openmetrics.write_file out;
      Printf.printf "wrote OpenMetrics exposition to %s\n%!" out)
    t.flags.metrics;
  Option.iter
    (fun dir ->
      let spec = manifest ~wall_s:(Unix.gettimeofday () -. t.wall0) in
      match Ledger.record ~dir spec with
      | Ok id -> Printf.printf "ledger: recorded %s in %s\n%!" id dir
      | Error msg ->
          Printf.eprintf "%s: [warn] ledger write failed: %s\n%!"
            spec.Ledger.tool msg)
    t.flags.ledger
