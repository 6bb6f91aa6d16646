(* Tests for the observability layer: the central guarantee is that
   instrumentation never changes the computation — an active sink and
   the work counters must leave schedules and sigma bit-identical to an
   uninstrumented run, at pool size 1 and N.  Plus: the Chrome trace
   export is well-formed JSON with properly nested spans, counters are
   deterministic, and the Log facade filters by level. *)

open Batsched_taskgraph
open Batsched_sched
module Sink = Batsched_obs.Sink
module Trace = Batsched_obs.Trace
module Report = Batsched_obs.Report
module Log = Batsched_obs.Log
module Histogram = Batsched_numeric.Histogram
module Events = Batsched_obs.Events
module Probe = Batsched_numeric.Probe

let parallel_pool = Batsched_numeric.Pool.create 4

let run_multistart ?(pool = Batsched_numeric.Pool.sequential)
    ?(obs = Sink.noop) ?(events = Events.noop) g ~deadline =
  let cfg = Batsched.Config.make ~pool ~obs ~events ~deadline () in
  Batsched.Iterate.run_multistart
    ~rng:(Batsched_numeric.Rng.create 11) ~starts:6 cfg g

(* Run [f] with the full telemetry stack up: histogram registry on and
   a live JSONL event stream to a temp file.  Hands [f] the events
   value and afterwards the parsed records; everything is torn back
   down whatever [f] does. *)
let with_full_telemetry f =
  let path = Filename.temp_file "batsched_events" ".jsonl" in
  Histogram.reset ();
  Histogram.enable ();
  Fun.protect
    ~finally:(fun () ->
      Histogram.disable ();
      Sys.remove path)
    (fun () ->
      let events = Events.create path in
      let result =
        Fun.protect ~finally:(fun () -> Events.close events)
          (fun () -> f events)
      in
      (result, Batsched_obs.Json.of_jsonl_file path))

let same_result name (a : Batsched.Iterate.result)
    (b : Batsched.Iterate.result) =
  Alcotest.(check (list int))
    (name ^ " sequence") a.Batsched.Iterate.schedule.Schedule.sequence
    b.Batsched.Iterate.schedule.Schedule.sequence;
  Alcotest.(check (list int))
    (name ^ " assignment")
    (Assignment.to_list a.Batsched.Iterate.schedule.Schedule.assignment)
    (Assignment.to_list b.Batsched.Iterate.schedule.Schedule.assignment);
  Alcotest.(check bool) (name ^ " sigma bit-identical") true
    (Float.equal a.Batsched.Iterate.sigma b.Batsched.Iterate.sigma)

let published_cases =
  (Instances.g3, Instances.g3_deadline)
  :: List.map (fun d -> (Instances.g2, d)) Instances.g2_deadlines

(* --- instrumentation does not perturb results --- *)

let test_active_sink_identical_sequential () =
  List.iter
    (fun (g, deadline) ->
      let plain = run_multistart g ~deadline in
      let traced = run_multistart ~obs:(Sink.create ()) g ~deadline in
      same_result (Graph.label g ^ " seq") plain traced)
    published_cases

let test_active_sink_identical_parallel () =
  List.iter
    (fun (g, deadline) ->
      let plain = run_multistart ~pool:parallel_pool g ~deadline in
      let traced =
        run_multistart ~pool:parallel_pool ~obs:(Sink.create ()) g ~deadline
      in
      same_result (Graph.label g ^ " par") plain traced)
    published_cases

(* the whole stack at once — sink spans, histogram registry, event
   stream — against a bare sequential run *)
let test_full_telemetry_identical () =
  List.iter
    (fun (g, deadline) ->
      let plain = run_multistart g ~deadline in
      let traced, _records =
        with_full_telemetry (fun events ->
            run_multistart ~pool:parallel_pool ~obs:(Sink.create ()) ~events g
              ~deadline)
      in
      same_result (Graph.label g ^ " full telemetry") plain traced)
    published_cases

let gen_case =
  QCheck.(map
            (fun (seed, slack10) ->
              let rng = Batsched_numeric.Rng.create seed in
              let spec =
                { Generators.default_spec with Generators.num_points = 4 }
              in
              let g = Generators.fork_join ~rng ~spec ~widths:[ 2; 3 ] in
              let slack = 0.05 +. (0.9 *. float_of_int slack10 /. 10.0) in
              (g, Generators.feasible_deadline g ~slack))
            (pair (int_bound 10_000) (int_bound 10)))

let prop_instrumented_matches_uninstrumented =
  QCheck.Test.make ~count:25
    ~name:
      "sink + events + histograms on a parallel pool bit-identical to noop \
       sequential"
    gen_case (fun (g, deadline) ->
      let plain = run_multistart g ~deadline in
      let traced, _ =
        with_full_telemetry (fun events ->
            run_multistart ~pool:parallel_pool ~obs:(Sink.create ()) ~events g
              ~deadline)
      in
      plain.Batsched.Iterate.schedule.Schedule.sequence
      = traced.Batsched.Iterate.schedule.Schedule.sequence
      && Assignment.equal
           plain.Batsched.Iterate.schedule.Schedule.assignment
           traced.Batsched.Iterate.schedule.Schedule.assignment
      && Float.equal plain.Batsched.Iterate.sigma
           traced.Batsched.Iterate.sigma)

(* --- counter determinism ---

   The memo caches persist across runs and are per-domain, so hit/miss
   splits depend on cache warmth and worker placement; the F-memo sits
   entirely behind the contribution cache, so even its lookup total
   varies.  The deterministic quantities are the pure work counters and
   the top-level contribution lookup total (hits + misses). *)

let invariant_snapshot () =
  let c = Probe.totals () in
  [ ("sigma_evals", c.Probe.sigma_evals);
    ("dpf_steps", c.Probe.dpf_steps);
    ("window_evals", c.Probe.window_evals);
    ("choose_calls", c.Probe.choose_calls);
    ("iterations", c.Probe.iterations);
    ("pool_tasks", c.Probe.pool_tasks);
    ("contrib_lookups", c.Probe.contrib_hits + c.Probe.contrib_misses) ]

let test_counters_repeatable () =
  let snap () =
    Probe.reset ();
    ignore (run_multistart Instances.g2 ~deadline:75.0);
    invariant_snapshot ()
  in
  Alcotest.(check (list (pair string int))) "identical totals twice"
    (snap ()) (snap ())

let test_counters_pool_size_invariant () =
  let snap pool =
    Probe.reset ();
    ignore (run_multistart ~pool Instances.g3 ~deadline:Instances.g3_deadline);
    invariant_snapshot ()
  in
  Alcotest.(check (list (pair string int))) "pool 1 = pool 4"
    (snap Batsched_numeric.Pool.sequential) (snap parallel_pool)

let test_counters_count_real_work () =
  Probe.reset ();
  ignore (run_multistart Instances.g2 ~deadline:75.0);
  let c = Probe.totals () in
  Alcotest.(check bool) "sigma evals happened" true (c.Probe.sigma_evals > 0);
  Alcotest.(check bool) "iterations happened" true (c.Probe.iterations > 0);
  Alcotest.(check bool) "windows evaluated" true (c.Probe.window_evals > 0);
  Alcotest.(check bool) "multistart mapped tasks" true (c.Probe.pool_tasks >= 6)

(* --- trace export validity ---

   Checked with the library's own minimal JSON reader (lib/obs/json.ml,
   promoted from the recursive-descent parser that used to live inline
   here). *)

open Batsched_obs.Json

let parse_json = parse

let traced_run () =
  let obs = Sink.create () in
  ignore
    (run_multistart ~pool:parallel_pool ~obs Instances.g3
       ~deadline:Instances.g3_deadline);
  obs

let trace_events obs =
  match field "traceEvents" (parse_json (Trace.to_string obs)) with
  | Some (Arr events) -> events
  | _ -> Alcotest.fail "traceEvents missing or not an array"

let test_trace_wellformed () =
  let events = traced_run () |> trace_events in
  Alcotest.(check bool) "has events" true (List.length events > 0);
  List.iter
    (fun e ->
      let str name =
        match field name e with
        | Some (Str s) -> s
        | _ -> Alcotest.fail (name ^ " missing or not a string")
      in
      let num name =
        match field name e with
        | Some (Num f) -> f
        | _ -> Alcotest.fail (name ^ " missing or not a number")
      in
      ignore (num "pid");
      ignore (num "tid");
      ignore (str "name");
      match str "ph" with
      | "X" ->
          Alcotest.(check bool) "ts >= 0" true (num "ts" >= 0.0);
          Alcotest.(check bool) "dur >= 0" true (num "dur" >= 0.0)
      | "M" -> ()
      | ph -> Alcotest.fail ("unexpected phase " ^ ph))
    events

let test_trace_noop_valid () =
  let events = trace_events Sink.noop in
  List.iter
    (fun e ->
      match field "ph" e with
      | Some (Str "M") -> ()
      | _ -> Alcotest.fail "noop trace should hold metadata only")
    events

let test_trace_has_expected_phases () =
  let events = traced_run () |> trace_events in
  let names =
    List.filter_map
      (fun e ->
        match (field "ph" e, field "name" e) with
        | Some (Str "X"), Some (Str n) -> Some n
        | _ -> None)
      events
  in
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " span present") true
        (List.mem expected names))
    [ "start"; "iteration"; "window"; "choose" ]

let test_spans_nest () =
  (* on each track, two spans either do not overlap or one contains the
     other: phase timers follow the call structure *)
  let spans = Sink.spans (traced_run ()) in
  let open Int64 in
  let contains (a : Sink.span) (b : Sink.span) =
    a.Sink.start_ns <= b.Sink.start_ns
    && add b.Sink.start_ns b.Sink.dur_ns <= add a.Sink.start_ns a.Sink.dur_ns
  in
  let disjoint (a : Sink.span) (b : Sink.span) =
    add a.Sink.start_ns a.Sink.dur_ns <= b.Sink.start_ns
    || add b.Sink.start_ns b.Sink.dur_ns <= a.Sink.start_ns
  in
  List.iter
    (fun (a : Sink.span) ->
      List.iter
        (fun (b : Sink.span) ->
          if a != b && a.Sink.track = b.Sink.track then
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s nest or disjoint" a.Sink.name b.Sink.name)
              true
              (contains a b || contains b a || disjoint a b))
        spans)
    spans

let contains_substring haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  n = 0 || at 0

let test_report_lists_counters () =
  Probe.reset ();
  let obs = Sink.create () in
  ignore (run_multistart ~obs Instances.g2 ~deadline:75.0);
  let report = Report.to_string obs in
  List.iter
    (fun (name, _) ->
      Alcotest.(check bool) (name ^ " in report") true
        (contains_substring report name))
    Probe.fields

(* --- the Log facade --- *)

let with_captured_log level f =
  let lines = ref [] in
  Log.set_output (fun line -> lines := line :: !lines);
  Log.set_level level;
  Fun.protect
    ~finally:(fun () ->
      Log.set_level Log.Quiet;
      Log.set_output (fun line ->
        output_string stderr (line ^ "\n");
        flush stderr))
    (fun () -> f ());
  List.rev !lines

let test_log_quiet_by_default () =
  Alcotest.(check bool) "quiet" true (Log.level () = Log.Quiet);
  let lines =
    with_captured_log Log.Quiet (fun () ->
        Log.err (fun () -> "e");
        Log.debug (fun () -> "d"))
  in
  Alcotest.(check (list string)) "nothing emitted" [] lines

let test_log_level_filters () =
  let lines =
    with_captured_log Log.Warn (fun () ->
        Log.err (fun () -> "an error");
        Log.warn (fun () -> "a warning");
        Log.info (fun () -> "some info");
        Log.debug (fun () -> "noise"))
  in
  Alcotest.(check (list string)) "err+warn only"
    [ "basched: [error] an error"; "basched: [warn] a warning" ]
    lines

let test_log_disabled_thunk_not_forced () =
  let forced = ref false in
  let _ =
    with_captured_log Log.Error (fun () ->
        Log.debug (fun () -> forced := true; "expensive"))
  in
  Alcotest.(check bool) "thunk skipped" false !forced

let test_log_of_string () =
  Alcotest.(check bool) "debug" true (Log.of_string "debug" = Some Log.Debug);
  Alcotest.(check bool) "quiet" true (Log.of_string "quiet" = Some Log.Quiet);
  Alcotest.(check bool) "junk" true (Log.of_string "chatty" = None)

(* --- histograms --- *)

let hist_of values =
  let h = Histogram.create () in
  List.iter (Histogram.record h) values;
  h

(* bucketed quantiles against the exact order statistics: the documented
   accuracy is half a bucket (~3% relative), plus a little slack for the
   rank-definition difference against [Stats.percentile]'s
   interpolation *)
let test_histogram_quantile_matches_stats () =
  let rng = Batsched_numeric.Rng.create 99 in
  let samples =
    List.init 1000 (fun _ ->
        Float.exp (Batsched_numeric.Rng.float rng 10.0))
  in
  let h = hist_of samples in
  Alcotest.(check int) "count" 1000 (Histogram.count h);
  List.iter
    (fun p ->
      let want = Batsched_numeric.Stats.percentile p samples in
      let got = Histogram.quantile h p in
      Alcotest.(check bool)
        (Printf.sprintf "p%.0f: %g within 7%% of %g" p got want)
        true
        (Float.abs (got -. want) <= 0.07 *. want))
    [ 10.0; 50.0; 90.0; 99.0 ];
  let mn, mx = (Histogram.min_value h, Histogram.max_value h) in
  Alcotest.(check bool) "p0 = exact min" true
    (Float.equal (Histogram.quantile h 0.0) mn);
  Alcotest.(check bool) "p100 = exact max" true
    (Float.equal (Histogram.quantile h 100.0) mx)

(* bucket contents and counts are integers, so merge determinism is
   exact; the running [sum] is a float accumulation whose association
   depends on the shard split, so it only agrees to rounding *)
let buckets_equal a b =
  Histogram.count a = Histogram.count b
  && Histogram.nonzero_buckets a = Histogram.nonzero_buckets b
  && Float.abs (Histogram.sum a -. Histogram.sum b)
     <= 1e-9 *. (1.0 +. Float.abs (Histogram.sum a))

(* sharding observations across histograms and merging in any order
   reproduces the directly-built histogram bucket for bucket *)
let prop_histogram_merge_deterministic =
  QCheck.Test.make ~count:100
    ~name:"sharded merge = direct build, any merge order"
    QCheck.(pair (int_bound 3) (small_list (pair (int_bound 4) pos_float)))
    (fun (shards, tagged) ->
      let k = shards + 1 in
      let direct = hist_of (List.map snd tagged) in
      let parts = Array.init k (fun _ -> Histogram.create ()) in
      List.iter
        (fun (tag, v) -> Histogram.record parts.(tag mod k) v)
        tagged;
      let forward = Histogram.create () in
      Array.iter (fun p -> Histogram.merge ~into:forward p) parts;
      let backward = Histogram.create () in
      for i = k - 1 downto 0 do
        Histogram.merge ~into:backward parts.(i)
      done;
      buckets_equal direct forward && buckets_equal forward backward)

(* the named registry: per-domain shards flushed at pool joins must
   yield a merged table independent of the pool size *)
let test_histogram_registry_pool_invariant () =
  let run pool =
    Histogram.reset ();
    Histogram.enable ();
    Fun.protect ~finally:Histogram.disable (fun () ->
        ignore
          (Batsched_numeric.Pool.map_list pool
             (fun i ->
               for j = 1 to 50 do
                 Histogram.observe "test/registry"
                   (float_of_int (((i * 53) + j) mod 97));
                 Histogram.observe "test/other" (float_of_int (i + j))
               done;
               i)
             (List.init 16 Fun.id));
        Histogram.snapshot ())
  in
  (* the executor's own telemetry ("pool/occupancy") only exists when a
     region fans out, so the invariant is over the workload's metrics *)
  let own (name, _) = not (String.length name >= 5 && String.sub name 0 5 = "pool/") in
  let a = List.filter own (run Batsched_numeric.Pool.sequential) in
  let b = List.filter own (run parallel_pool) in
  Alcotest.(check (list string))
    "same metric names" (List.map fst a) (List.map fst b);
  List.iter2
    (fun (name, ha) (_, hb) ->
      Alcotest.(check bool) (name ^ " buckets identical") true
        (buckets_equal ha hb))
    a b

let test_histogram_disabled_noop () =
  Histogram.reset ();
  Histogram.observe "test/ghost" 1.0;
  Alcotest.(check (list string)) "nothing recorded while disabled" []
    (List.map fst (Histogram.snapshot ()))

(* --- events stream --- *)

let test_events_jsonl_wellformed () =
  let _, records =
    with_full_telemetry (fun events ->
        run_multistart ~events Instances.g2 ~deadline:75.0)
  in
  Alcotest.(check bool) "has records" true (records <> []);
  let last_t = ref (-1.0) in
  List.iter
    (fun r ->
      (match (str_field "kind" r, num_field "t_ns" r) with
      | Some _, Some t -> Alcotest.(check bool) "t_ns >= 0" true (t >= 0.0)
      | _ -> Alcotest.fail "record missing kind or t_ns");
      (* single-writer sequential run: timestamps are monotone *)
      let t = Option.get (num_field "t_ns" r) in
      Alcotest.(check bool) "t_ns monotone" true (t >= !last_t);
      last_t := t)
    records;
  let kinds = List.filter_map (str_field "kind") records in
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " present") true (List.mem k kinds))
    [ "choose"; "iteration"; "trial"; "multistart_done" ]

let test_events_annealing_stream () =
  let _, records =
    with_full_telemetry (fun events ->
        let rng = Batsched_numeric.Rng.create 11 in
        let model = Batsched_battery.Rakhmatov.model () in
        ignore
          (Batsched_baselines.Annealing.run ~events ~rng ~model Instances.g2
             ~deadline:75.0))
  in
  let kinds = List.filter_map (str_field "kind") records in
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " present") true (List.mem k kinds))
    [ "anneal_start"; "anneal_level"; "anneal_done" ];
  (* acceptance rates are rates *)
  List.iter
    (fun r ->
      if str_field "kind" r = Some "anneal_level" then
        match num_field "accept_rate" r with
        | Some a ->
            Alcotest.(check bool) "accept_rate in [0,1]" true
              (a >= 0.0 && a <= 1.0)
        | None -> Alcotest.fail "anneal_level missing accept_rate")
    records

let test_events_noop_inactive () =
  Alcotest.(check bool) "noop inactive" false (Events.is_active Events.noop)

(* --- OpenMetrics exposition lint --- *)

let metric_line_ok line =
  (* NAME{label="value",...} VALUE  — value is the last space-separated
     token and must parse as a float; the name part must use the
     Prometheus alphabet *)
  match String.rindex_opt line ' ' with
  | None -> false
  | Some i ->
      let value = String.sub line (i + 1) (String.length line - i - 1) in
      let name_part = String.sub line 0 i in
      let name =
        match String.index_opt name_part '{' with
        | Some j ->
            if j > 0 && name_part.[String.length name_part - 1] = '}' then
              String.sub name_part 0 j
            else ""
        | None -> name_part
      in
      let name_ok =
        name <> ""
        && String.for_all
             (function
               | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
               | _ -> false)
             name
      in
      name_ok && float_of_string_opt value <> None

let test_openmetrics_lint () =
  Probe.reset ();
  Histogram.reset ();
  Histogram.enable ();
  let text =
    Fun.protect ~finally:Histogram.disable (fun () ->
        ignore (run_multistart ~obs:(Sink.create ()) Instances.g2 ~deadline:75.0);
        Batsched_obs.Openmetrics.to_string ())
  in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' text)
  in
  Alcotest.(check bool) "nonempty" true (lines <> []);
  Alcotest.(check string) "terminated by # EOF" "# EOF"
    (List.nth lines (List.length lines - 1));
  List.iter
    (fun line ->
      if String.length line > 0 && line.[0] <> '#' then
        Alcotest.(check bool) ("well-formed sample: " ^ line) true
          (metric_line_ok line))
    lines;
  Alcotest.(check bool) "counters exported" true
    (List.exists
       (fun l ->
         String.length l >= 22
         && String.sub l 0 22 = "batsched_counter_total")
       lines);
  (* histogram families: cumulative buckets ending at le="+Inf" = count *)
  let bucket_suffix = "_bucket{le=\"" in
  let contains_at l sub i =
    i + String.length sub <= String.length l
    && String.sub l i (String.length sub) = sub
  in
  let bucket_lines =
    List.filter
      (fun l ->
        let rec scan i =
          i + String.length bucket_suffix <= String.length l
          && (contains_at l bucket_suffix i || scan (i + 1))
        in
        String.length l > 0 && l.[0] <> '#' && scan 0)
      lines
  in
  Alcotest.(check bool) "histogram buckets exported" true (bucket_lines <> []);
  (* per family, counts never decrease and the family ends at +Inf *)
  let family_of l =
    match String.index_opt l '{' with
    | Some j -> String.sub l 0 j
    | None -> l
  in
  let value_of l =
    match String.rindex_opt l ' ' with
    | Some i ->
        float_of_string (String.sub l (i + 1) (String.length l - i - 1))
    | None -> Float.nan
  in
  let rec group = function
    | [] -> []
    | l :: _ as ls ->
        let fam = family_of l in
        let mine, rest = List.partition (fun l' -> family_of l' = fam) ls in
        (fam, mine) :: group rest
  in
  List.iter
    (fun (fam, ls) ->
      let counts = List.map value_of ls in
      let sorted = List.sort compare counts in
      Alcotest.(check bool) (fam ^ " cumulative") true (counts = sorted);
      let last_bucket = List.nth ls (List.length ls - 1) in
      let has_inf =
        let inf = "{le=\"+Inf\"}" in
        let rec scan i =
          i + String.length inf <= String.length last_bucket
          && (contains_at last_bucket inf i || scan (i + 1))
        in
        scan 0
      in
      Alcotest.(check bool) (fam ^ " ends at +Inf") true has_inf)
    (group bucket_lines)

(* --- bench --compare classification --- *)

module BC = Batsched_obs.Bench_compare

let bc_row ?(r2 = 0.99) ?(low = false) ?first ?(counters = []) name ns =
  { BC.name;
    ns_per_run = ns;
    r_square = r2;
    low_confidence = low;
    ns_per_run_first = first;
    counters }

let check_verdict msg want (c : BC.comparison) =
  Alcotest.(check string) msg (BC.verdict_string want)
    (BC.verdict_string c.BC.verdict)

(* r2 = 0.99 on both sides gives threshold 0.10 + 0.5*(0.1+0.1) = 0.20 *)
let test_compare_classify () =
  check_verdict "halved = improved" BC.Improved
    (BC.classify_pair ~scenario:"x" (bc_row "x" 1000.0) (bc_row "x" 500.0));
  check_verdict "identical = flat" BC.Flat
    (BC.classify_pair ~scenario:"x" (bc_row "x" 1000.0) (bc_row "x" 1000.0));
  check_verdict "+10% inside threshold = flat" BC.Flat
    (BC.classify_pair ~scenario:"x" (bc_row "x" 1000.0) (bc_row "x" 1100.0));
  check_verdict "doubled = regressed" BC.Regressed
    (BC.classify_pair ~scenario:"x" (bc_row "x" 1000.0) (bc_row "x" 2000.0));
  check_verdict "poor fit never gates" BC.Low_confidence
    (BC.classify_pair ~scenario:"x"
       (bc_row ~r2:0.2 "x" 1000.0)
       (bc_row "x" 2000.0));
  check_verdict "low-confidence tag never gates" BC.Low_confidence
    (BC.classify_pair ~scenario:"x" (bc_row "x" 1000.0)
       (bc_row ~low:true "x" 2000.0));
  (* +25% would regress at threshold 0.20, but the rerun guard saw the
     first estimate 20% above the final one: dispersion widens the
     threshold to 0.40 *)
  check_verdict "rerun dispersion widens the threshold" BC.Flat
    (BC.classify_pair ~scenario:"x" (bc_row "x" 1000.0)
       (bc_row ~first:1500.0 "x" 1250.0))

let test_compare_rows_join () =
  let old_rows = [ bc_row "a" 1000.0; bc_row "gone" 5.0 ] in
  let new_rows =
    [ bc_row "batsched/a" 500.0;
      bc_row "fresh-delta/x" 100.0;
      bc_row "fresh-reference/x" 1000.0 ]
  in
  let r = BC.compare_rows old_rows new_rows in
  Alcotest.(check (list string)) "joined on bare name" [ "a" ]
    (List.map (fun c -> c.BC.scenario) r.BC.joined);
  check_verdict "joined improved" BC.Improved (List.hd r.BC.joined);
  Alcotest.(check (list string)) "removed" [ "gone" ] r.BC.removed;
  Alcotest.(check bool) "reference twin paired" true
    (List.exists
       (fun c -> c.BC.new_ns = 100.0 && c.BC.old_ns = 1000.0)
       r.BC.pairs);
  Alcotest.(check bool) "no confident regression" false
    (BC.has_confident_regression r)

let test_compare_regression_gate () =
  let gate old_r2 =
    BC.has_confident_regression
      (BC.compare_rows
         [ bc_row ~r2:old_r2 "a" 1000.0 ]
         [ bc_row "a" 3000.0 ])
  in
  Alcotest.(check bool) "confident regression trips the gate" true
    (gate 0.99);
  Alcotest.(check bool) "noisy old row only warns" false (gate 0.2)

let test_compare_normalize () =
  let old_rows = [ bc_row "a" 1000.0; bc_row "b" 2000.0; bc_row "c" 10.0 ] in
  let new_rows = [ bc_row "a" 2000.0; bc_row "b" 4000.0; bc_row "c" 20.0 ] in
  let raw = BC.compare_rows old_rows new_rows in
  List.iter (check_verdict "raw: doubled = regressed" BC.Regressed)
    raw.BC.joined;
  let normed = BC.compare_rows ~normalize:true old_rows new_rows in
  (match normed.BC.norm_factor with
  | Some f -> Alcotest.(check bool) "median ratio divided out" true
                (Float.abs (f -. 2.0) < 1e-9)
  | None -> Alcotest.fail "norm_factor missing");
  List.iter
    (check_verdict "normalized: uniform slowdown = flat" BC.Flat)
    normed.BC.joined

(* the committed snapshots must reproduce the PR 1-6 speedups — the
   same invariant the CI gate relies on.  The paths are relative to the
   test executable's directory, into which dune copies the snapshots
   the test stanza depends on; a missing snapshot fails the test. *)
let test_compare_committed_snapshots () =
  let data path = Filename.concat (Filename.dirname Sys.executable_name) path in
  let old_path = data "../BENCH_2026-08-06_seed.json" in
  let new_path = data "../BENCH_2026-08-08_models.json" in
  List.iter
    (fun path ->
      if not (Sys.file_exists path) then Alcotest.failf "missing snapshot %s" path)
    [ old_path; new_path ];
  let r = BC.compare_files old_path new_path in
  let verdict_of scenario =
    match
      List.find_opt
        (fun c -> c.BC.scenario = scenario)
        (r.BC.joined @ r.BC.pairs)
    with
    | Some c -> BC.verdict_string c.BC.verdict
    | None -> "missing"
  in
  Alcotest.(check string) "iterate-n26 improved" "improved"
    (verdict_of "scaling/iterate-n26");
  Alcotest.(check bool) "choose-n64 pair improved" true
    (List.exists
       (fun c ->
         c.BC.verdict = BC.Improved
         && c.BC.new_ns < c.BC.old_ns
         &&
         let s = c.BC.scenario in
         String.length s >= 11 && String.sub s 0 11 = "choose-n64/")
       r.BC.pairs);
  Alcotest.(check bool) "no confident regression" false
    (BC.has_confident_regression r)

(* --- torn-tail tolerant tailer --- *)

module Tail = Batsched_obs.Tail
module Ledger = Batsched_obs.Ledger
module Profile = Batsched_obs.Profile
module Dash = Batsched_obs.Dash

(* one multistart event stream rendered to bytes: the shared input for
   the tailer and dashboard tests *)
let events_bytes =
  lazy
    (let path = Filename.temp_file "batsched_tailsrc" ".jsonl" in
     Fun.protect
       ~finally:(fun () -> Sys.remove path)
       (fun () ->
         let events = Events.create path in
         Fun.protect
           ~finally:(fun () -> Events.close events)
           (fun () ->
             ignore (run_multistart ~events Instances.g2 ~deadline:75.0));
         In_channel.with_open_bin path In_channel.input_all))

(* cut [s] into chunks of the given sizes (cycling) and feed them all *)
let chunked_feed tail sizes s =
  let sizes = match sizes with [] -> [ 1 ] | _ -> sizes in
  let n = String.length s in
  let records = ref [] in
  let rec go pos = function
    | [] -> go pos sizes
    | size :: rest ->
        if pos < n then begin
          let len = min size (n - pos) in
          records :=
            List.rev_append (Tail.feed tail (String.sub s pos len)) !records;
          go (pos + len) rest
        end
  in
  if n > 0 then go 0 sizes;
  records := List.rev_append (Tail.finish tail) !records;
  List.rev !records

let prop_tail_chunking_invariant =
  QCheck.Test.make ~count:50
    ~name:"tailer: chunked feed equals one-gulp feed"
    QCheck.(small_list (int_range 1 97))
    (fun sizes ->
      let s = Lazy.force events_bytes in
      let whole = Tail.create () in
      let fed = Tail.feed whole s in
      let w = fed @ Tail.finish whole in
      let chunked = Tail.create () in
      let c = chunked_feed chunked sizes s in
      w = c && Tail.bad whole = Tail.bad chunked)

(* every truncation point: the tailer recovers all complete lines,
   counts the torn tail (unless the cut landed exactly after a record's
   closing brace, which parses), and never raises *)
let test_tail_truncation_sweep () =
  let s = Lazy.force events_bytes in
  let n = String.length s in
  Alcotest.(check bool) "source nonempty" true (n > 0);
  (let t = Tail.create () in
   ignore (Tail.feed t s);
   ignore (Tail.finish t);
   Alcotest.(check int) "source parses clean" 0 (Tail.bad t));
  let cuts =
    List.filter (fun i -> i mod 101 = 0 || n - i <= 220) (List.init n Fun.id)
  in
  List.iter
    (fun cut ->
      let prefix = String.sub s 0 cut in
      let complete = ref 0 and last_nl = ref (-1) in
      String.iteri
        (fun i ch ->
          if ch = '\n' then begin
            incr complete;
            last_nl := i
          end)
        prefix;
      let partial =
        String.sub prefix (!last_nl + 1) (cut - !last_nl - 1)
      in
      let partial_parses =
        partial <> ""
        && match parse_json partial with _ -> true | exception _ -> false
      in
      let t = Tail.create () in
      let fed = Tail.feed t prefix in
      let records = fed @ Tail.finish t in
      Alcotest.(check int)
        (Printf.sprintf "cut at %d: records" cut)
        (!complete + if partial_parses then 1 else 0)
        (List.length records);
      Alcotest.(check int)
        (Printf.sprintf "cut at %d: torn count" cut)
        (if partial <> "" && not partial_parses then 1 else 0)
        (Tail.bad t))
    cuts

(* --- run ledger --- *)

let with_temp_ledger f =
  let dir = Filename.temp_file "batsched_ledger" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      (match Sys.readdir dir with
      | names ->
          Array.iter
            (fun name ->
              try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
            names
      | exception Sys_error _ -> ());
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f dir)

let ledger_spec ?(label = "annealing") () =
  { Ledger.tool = "test";
    label;
    instance = "g2";
    instance_hash = "abc";
    model = "rakhmatov";
    seed = 7;
    pool_size = 2;
    knobs = [ ("deadline", "75"); ("quote", "a\"b") ];
    wall_s = 0.25;
    sigma = Some 123.5;
    finish = Some 70.0;
    events_path = None;
    curve = [ (0.1, 10.0, 200.0); (0.2, 25.0, 123.5) ] }

let test_ledger_roundtrip () =
  with_temp_ledger @@ fun dir ->
  match Ledger.record ~dir (ledger_spec ()) with
  | Error e -> Alcotest.fail e
  | Ok id -> (
      let entries, skipped = Ledger.load dir in
      Alcotest.(check int) "no skips" 0 skipped;
      match entries with
      | [ e ] ->
          Alcotest.(check string) "id" id e.Ledger.id;
          Alcotest.(check int) "schema" Ledger.schema_version e.Ledger.schema;
          Alcotest.(check string) "label" "annealing" e.Ledger.e_label;
          Alcotest.(check string) "model" "rakhmatov" e.Ledger.e_model;
          Alcotest.(check int) "seed" 7 e.Ledger.e_seed;
          Alcotest.(check int) "pool size" 2 e.Ledger.e_pool_size;
          Alcotest.(check (option (float 1e-9))) "sigma" (Some 123.5)
            e.Ledger.e_sigma;
          Alcotest.(check (option (float 1e-9))) "finish" (Some 70.0)
            e.Ledger.e_finish;
          Alcotest.(check string) "escaped knob survives" "a\"b"
            (Option.value ~default:""
               (List.assoc_opt "quote" e.Ledger.e_knobs));
          Alcotest.(check int) "curve points" 2 (List.length e.Ledger.e_curve);
          Alcotest.(check bool) "counter snapshot present" true
            (e.Ledger.counters <> [])
      | l ->
          Alcotest.fail
            (Printf.sprintf "expected 1 entry, got %d" (List.length l)))

let test_ledger_find_and_gc () =
  with_temp_ledger @@ fun dir ->
  let ids =
    List.map
      (fun label ->
        match Ledger.record ~dir (ledger_spec ~label ()) with
        | Ok id -> id
        | Error e -> Alcotest.fail e)
      [ "a"; "b"; "c"; "d"; "e" ]
  in
  (match Ledger.find dir (List.nth ids 2) with
  | Ok e -> Alcotest.(check string) "exact id" "c" e.Ledger.e_label
  | Error e -> Alcotest.fail e);
  (match Ledger.find dir "run-" with
  | Ok _ -> Alcotest.fail "ambiguous prefix resolved"
  | Error msg ->
      Alcotest.(check bool) "ambiguity reported" true
        (contains_substring msg "ambiguous"));
  (match Ledger.find dir "no-such-run" with
  | Ok _ -> Alcotest.fail "missing id resolved"
  | Error msg ->
      Alcotest.(check bool) "no-match reported" true
        (contains_substring msg "no run"));
  Alcotest.(check int) "gc removes the oldest" 3 (Ledger.gc ~keep:2 dir);
  let entries, _ = Ledger.load dir in
  Alcotest.(check (list string)) "newest two survive, in order"
    [ "d"; "e" ]
    (List.map (fun e -> e.Ledger.e_label) entries)

(* --- anytime profiles --- *)

let profile_entry ?(id = "run-a") ?(pool = 1) ?(wall = 1.0) curve =
  { Ledger.id;
    schema = Ledger.schema_version;
    created = 0.0;
    e_tool = "test";
    e_label = "x";
    e_instance = "";
    e_instance_hash = "";
    e_model = "";
    e_seed = 0;
    e_pool_size = pool;
    git_rev = "none";
    e_wall_s = wall;
    e_sigma = None;
    e_finish = None;
    e_events_path = None;
    e_knobs = [];
    counters = [];
    e_curve = curve }

let test_profile_staircase () =
  let e =
    profile_entry [ (0.1, 10.0, 200.0); (0.4, 40.0, 150.0); (0.9, 90.0, 120.0) ]
  in
  match Profile.run_of_entry ~axis:`Evals e with
  | None -> Alcotest.fail "entry with a curve yielded no run"
  | Some run ->
      Alcotest.(check (option (float 1e-9))) "before first point" None
        (Profile.best_at run 5.0);
      Alcotest.(check (option (float 1e-9))) "at first point" (Some 200.0)
        (Profile.best_at run 10.0);
      Alcotest.(check (option (float 1e-9))) "mid staircase" (Some 150.0)
        (Profile.best_at run 50.0);
      Alcotest.(check (option (float 1e-9))) "past the end" (Some 120.0)
        (Profile.best_at run 1000.0);
      Alcotest.(check (option (float 1e-9))) "hit 150" (Some 40.0)
        (Profile.hit_x run ~target:150.0);
      Alcotest.(check (option (float 1e-9))) "never hits 100" None
        (Profile.hit_x run ~target:100.0);
      Alcotest.(check (option (float 1e-9))) "single-run ERT" (Some 40.0)
        (Profile.ert [ run ] ~target:150.0);
      (* a run that never reaches the target charges its full budget *)
      let miss =
        Option.get
          (Profile.run_of_entry ~axis:`Evals
             (profile_entry [ (0.2, 20.0, 180.0) ]))
      in
      Alcotest.(check (option (float 1e-9)))
        "ERT charges failed runs' budgets" (Some 60.0)
        (Profile.ert [ run; miss ] ~target:150.0)

(* the evals axis is pool-size-invariant: the same search on a wider
   pool finishes earlier in wall time but visits the same points *)
let test_profile_evals_axis_pool_invariant () =
  let curve_seq = [ (0.4, 10.0, 200.0); (1.6, 40.0, 150.0) ] in
  let curve_par = List.map (fun (t, e, q) -> (t /. 4.0, e, q)) curve_seq in
  let a = profile_entry ~id:"run-seq" ~pool:1 ~wall:2.0 curve_seq in
  let b = profile_entry ~id:"run-par" ~pool:4 ~wall:0.5 curve_par in
  let ra = Option.get (Profile.run_of_entry ~axis:`Evals a) in
  let rb = Option.get (Profile.run_of_entry ~axis:`Evals b) in
  Alcotest.(check bool) "evals-axis runs identical" true
    (ra.Profile.pts = rb.Profile.pts
    && Float.equal ra.Profile.horizon rb.Profile.horizon);
  let ta = Option.get (Profile.run_of_entry ~axis:`Time a) in
  let tb = Option.get (Profile.run_of_entry ~axis:`Time b) in
  Alcotest.(check bool) "time-axis runs differ" false
    (ta.Profile.pts = tb.Profile.pts);
  (* and the rendered evals-axis report cannot tell the cohorts apart *)
  Alcotest.(check bool) "report deterministic" true
    (Profile.compare_to_string ~axis:`Evals ~name_a:"s" ~name_b:"p" [ a ]
       [ b ]
    = Profile.compare_to_string ~axis:`Evals ~name_a:"s" ~name_b:"p" [ a ]
        [ b ])

let test_profile_dominance () =
  let good i =
    profile_entry
      ~id:(Printf.sprintf "run-good%d" i)
      [ (0.1, 10.0, 150.0 +. float_of_int i); (0.5, 50.0, 100.0) ]
  in
  let bad i =
    profile_entry
      ~id:(Printf.sprintf "run-bad%d" i)
      [ (0.1, 10.0, 250.0 +. float_of_int i); (0.5, 50.0, 200.0) ]
  in
  let runs l =
    List.filter_map (Profile.run_of_entry ~axis:`Evals) l
  in
  let a = runs [ good 0; good 1; good 2 ] in
  let b = runs [ bad 0; bad 1; bad 2 ] in
  let v = Profile.dominance a b in
  Alcotest.(check bool) "uniformly better cohort wins every resample" true
    (v.Profile.a_wins = 1.0);
  Alcotest.(check bool) "scores ordered" true
    (v.Profile.score_a < v.Profile.score_b);
  let v' = Profile.dominance a b in
  Alcotest.(check bool) "fixed-seed bootstrap is deterministic" true
    (v.Profile.a_wins = v'.Profile.a_wins
    && Float.equal v.Profile.score_a v'.Profile.score_a)

(* curve extraction agrees between the in-memory stream (what the
   ledger stores) and the JSONL file (what basched report reads) *)
let test_profile_curve_extraction () =
  let snap, records =
    with_full_telemetry (fun events ->
        let rng = Batsched_numeric.Rng.create 11 in
        let model = Batsched_battery.Rakhmatov.model () in
        ignore
          (Batsched_baselines.Annealing.run ~events ~rng ~model Instances.g2
             ~deadline:75.0);
        Events.snapshot events)
  in
  let from_mem = Profile.curve_of_events snap in
  let from_file = Profile.curve_of_json records in
  Alcotest.(check bool) "curve nonempty" true (from_mem <> []);
  Alcotest.(check bool) "downsampled" true (List.length from_mem <= 96);
  Alcotest.(check int) "same length" (List.length from_mem)
    (List.length from_file);
  List.iter2
    (fun (t, e, q) (t', e', q') ->
      Alcotest.(check bool)
        (Printf.sprintf "same point: (%.17g,%.17g,%.17g) vs (%.17g,%.17g,%.17g)"
           t e q t' e' q')
        true
        (Float.abs (t -. t') <= 1e-9 && Float.equal e e' && Float.equal q q'))
    from_mem from_file;
  let rec monotone = function
    | (_, e1, q1) :: ((_, e2, q2) :: _ as rest) ->
        e1 <= e2 && q1 > q2 && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "evals ascend, sigma strictly improves" true
    (monotone from_mem)

(* --- dashboard: live tail equals replay --- *)

let dash_of_records records skipped =
  Dash.note_skipped (Dash.feed_all Dash.empty records) skipped

let prop_dash_live_equals_replay =
  QCheck.Test.make ~count:50
    ~name:"dash: chunked live tail and one-gulp replay summaries agree"
    QCheck.(small_list (int_range 1 97))
    (fun sizes ->
      let s = Lazy.force events_bytes in
      let whole = Tail.create () in
      let fed = Tail.feed whole s in
      let whole_records = fed @ Tail.finish whole in
      let replay = dash_of_records whole_records (Tail.bad whole) in
      let t = Tail.create () in
      let live_records = chunked_feed t sizes s in
      let live = dash_of_records live_records (Tail.bad t) in
      Dash.summary live = Dash.summary replay)

let test_dash_summary_content () =
  let s = Lazy.force events_bytes in
  let t = Tail.create () in
  let fed = Tail.feed t s in
  let records = fed @ Tail.finish t in
  let st = dash_of_records records (Tail.bad t) in
  let summary = Dash.summary st in
  Alcotest.(check bool) "names the searcher" true
    (contains_substring summary "multistart");
  Alcotest.(check bool) "counts the trials" true
    (contains_substring summary "trials 6 of 6");
  Alcotest.(check bool) "reports best sigma" true
    (contains_substring summary "best sigma");
  (* a torn tail surfaces in the summary *)
  let torn = String.sub s 0 (String.length s - 3) in
  let t2 = Tail.create () in
  let fed2 = Tail.feed t2 torn in
  let records2 = fed2 @ Tail.finish t2 in
  let st2 = dash_of_records records2 (Tail.bad t2) in
  Alcotest.(check bool) "torn tail reported" true
    (contains_substring (Dash.summary st2) "skipped 1 unparseable")

(* the ledger's in-memory event capture must be as invisible as the
   file stream: bit-identical schedules at pool 1 and 4 *)
let test_memory_events_identical () =
  List.iter
    (fun (g, deadline) ->
      let plain = run_multistart g ~deadline in
      List.iter
        (fun (plabel, pool) ->
          let events = Events.create_memory () in
          let traced = run_multistart ~pool ~events g ~deadline in
          same_result (Graph.label g ^ " memory events " ^ plabel) plain
            traced)
        [ ("pool1", Batsched_numeric.Pool.sequential);
          ("pool4", parallel_pool) ])
    published_cases

(* --- bench --compare work-profile diff --- *)

let test_compare_work_profile () =
  let old_rows =
    [ bc_row
        ~counters:
          [ ("sigma_evals", 100.0); ("choose_calls", 7.0);
            ("minor_words", 5000.0) ]
        "a" 1000.0 ]
  in
  let new_rows =
    [ bc_row
        ~counters:
          [ ("sigma_evals", 200.0); ("choose_calls", 7.0);
            ("minor_words", 5002.0) ]
        "a" 1000.0 ]
  in
  let r = BC.compare_rows old_rows new_rows in
  Alcotest.(check (list string))
    "doubled counter reported; unchanged and word-wobble skipped"
    [ "sigma_evals" ]
    (List.map (fun d -> d.BC.cd_counter) r.BC.work);
  Alcotest.(check bool) "informational only: gate unaffected" false
    (BC.has_confident_regression r);
  Alcotest.(check bool) "rendered as its own section" true
    (contains_substring (BC.to_string r) "work-profile changes");
  let bare = BC.compare_rows [ bc_row "a" 1000.0 ] [ bc_row "a" 1000.0 ] in
  Alcotest.(check int) "no counters, no section" 0 (List.length bare.BC.work);
  match
    BC.row_of_json
      (parse_json
         "{\"name\": \"batsched/x\", \"ns_per_run\": 5.0, \
          \"counters\": {\"sigma_evals\": 42}}")
  with
  | Some row ->
      Alcotest.(check (list (pair string (float 1e-9))))
        "counters parsed from the row object"
        [ ("sigma_evals", 42.0) ]
        row.BC.counters
  | None -> Alcotest.fail "row with counters failed to parse"

(* --- OpenMetrics escaping --- *)

let test_openmetrics_escaping () =
  Alcotest.(check string)
    "exactly backslash, quote and newline escape; tab passes through"
    "a\\\\b\\\"c\\nd\te"
    (Batsched_obs.Openmetrics.escape_label "a\\b\"c\nd\te");
  Alcotest.(check string) "plain values untouched" "anneal/level"
    (Batsched_obs.Openmetrics.escape_label "anneal/level");
  Alcotest.(check string) "metric names sanitized" "span_choose_1"
    (Batsched_obs.Openmetrics.sanitize "span/choose.1")

let test_openmetrics_sci_notation_buckets () =
  Probe.reset ();
  Histogram.reset ();
  Histogram.enable ();
  let text =
    Fun.protect ~finally:Histogram.disable (fun () ->
        List.iter (Histogram.observe "test/sci") [ 1e-7; 0.5; 3.0e12; 1e30 ];
        Batsched_obs.Openmetrics.to_string ())
  in
  let lines = String.split_on_char '\n' text in
  let le_of line =
    let marker = "le=\"" in
    let ml = String.length marker in
    let rec scan i =
      if i + ml > String.length line then None
      else if String.sub line i ml = marker then
        let j = String.index_from line (i + ml) '"' in
        Some (String.sub line (i + ml) (j - i - ml))
      else scan (i + 1)
    in
    scan 0
  in
  let les = List.filter_map le_of lines in
  Alcotest.(check bool) "extreme bounds render in scientific notation" true
    (List.exists
       (fun v -> String.contains v 'e' || String.contains v 'E')
       les);
  List.iter
    (fun v ->
      Alcotest.(check bool) ("le bound parses: " ^ v) true
        (v = "+Inf" || float_of_string_opt v <> None))
    les;
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then
        Alcotest.(check bool) ("well-formed sample: " ^ line) true
          (metric_line_ok line))
    lines

(* --- report robustness --- *)

let test_report_superseded_sink () =
  let a = Sink.create () in
  Sink.with_span a "alpha" (fun () -> ());
  (* a later sink must not take over [a]: each report shows its own
     sink's spans only *)
  let b = Sink.create () in
  Sink.with_span b "beta" (fun () -> ());
  let ra = Report.to_string a in
  Alcotest.(check bool) "superseded report omits successor spans" false
    (contains_substring ra "beta");
  let rb = Report.to_string b in
  Alcotest.(check bool) "live sink keeps its spans" true
    (contains_substring rb "beta")

(* A span belongs to the sink it was recorded on, whichever sink was
   created last and whichever domain recorded it: here the older of two
   live sinks collects a pool-4 region's item spans, run by the helpers
   and the main domain, plus the main domain's enclosing span. *)
let test_two_sinks_keep_own_spans () =
  let a = Sink.create () in
  let b = Sink.create () in
  (Fun.protect ~finally:(fun () -> Batsched_numeric.Pool.set_task_delay None)
   @@ fun () ->
   (* dilated chunks make sure the helpers join the region *)
   Batsched_numeric.Pool.set_task_delay (Some (fun () -> Unix.sleepf 0.0005));
   Sink.with_span a "region" (fun () ->
       ignore
         (Batsched_numeric.Pool.map_array parallel_pool
            (fun i -> Sink.with_span a "item" (fun () -> i))
            (Array.init 64 Fun.id))));
  let spans = Sink.spans a in
  let named n = List.filter (fun (s : Sink.span) -> s.Sink.name = n) spans in
  Alcotest.(check int) "item spans on a" 64 (List.length (named "item"));
  Alcotest.(check (list int)) "region span on a, main track" [ 0 ]
    (List.map (fun (s : Sink.span) -> s.Sink.track) (named "region"));
  Alcotest.(check bool) "helpers recorded item spans" true
    (List.exists (fun (s : Sink.span) -> s.Sink.track > 0) (named "item"));
  Alcotest.(check int) "nothing on b" 0 (List.length (Sink.spans b))

let test_report_renders_histograms () =
  Histogram.reset ();
  Histogram.enable ();
  let report =
    Fun.protect ~finally:Histogram.disable (fun () ->
        Histogram.observe "test/latency" 123.0;
        Report.to_string Sink.noop)
  in
  Alcotest.(check bool) "histogram table present" true
    (contains_substring report "test/latency")

(* --- Json reader boundaries --- *)

let nested depth = String.make depth '[' ^ String.make depth ']'

let test_json_nesting_cap () =
  let rec depth_of = function Arr [ v ] -> 1 + depth_of v | _ -> 1 in
  Alcotest.(check int) "max_depth levels parse" max_depth
    (depth_of (parse (nested max_depth)));
  let msg =
    Printf.sprintf "nesting deeper than %d at byte %d" max_depth max_depth
  in
  Alcotest.check_raises "one level more" (Bad_json msg) (fun () ->
      ignore (parse (nested (max_depth + 1))));
  (* a hostile line is rejected at the cap, not after reading it all *)
  Alcotest.check_raises "two million levels" (Bad_json msg) (fun () ->
      ignore (parse (nested 2_000_000)))

let test_json_bad_unicode_escape () =
  Alcotest.(check bool) "valid escape" true (parse {|"\u00e9"|} = Str "?");
  List.iter
    (fun text ->
      match parse text with
      | _ -> Alcotest.failf "%s: should be rejected" text
      | exception Bad_json _ -> ())
    [ {|"\uZZZZ"|}; {|"\u-123"|}; {|"\u12"|} ]

let rec json_to_string = function
  | Obj members ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) ->
               Printf.sprintf "\"%s\":%s" (escape_string k) (json_to_string v))
             members)
      ^ "}"
  | Arr vs -> "[" ^ String.concat "," (List.map json_to_string vs) ^ "]"
  | Str s -> "\"" ^ escape_string s ^ "\""
  | Num f -> Printf.sprintf "%.17g" f
  | Bool b -> string_of_bool b
  | Null -> "null"

let gen_json =
  QCheck.Gen.(
    let str = string_size ~gen:printable (int_bound 8) in
    let leaf =
      oneof
        [ map (fun s -> Str s) str;
          map (fun f -> Num f) (float_range (-1e6) 1e6);
          map (fun b -> Bool b) bool;
          return Null ]
    in
    sized
    @@ fix (fun self n ->
           if n <= 0 then leaf
           else
             let few g = list_size (int_bound 4) g and sub = self (n / 4) in
             frequency
               [ (2, leaf);
                 (1, map (fun l -> Arr l) (few sub));
                 (1, map (fun l -> Obj l) (few (pair str sub))) ]))

(* fuzz: a single-byte corruption of a serialized document either
   parses or raises the documented Bad_json — never another exception *)
let prop_json_fuzz_no_crash =
  QCheck.Test.make ~count:500 ~name:"json survives corrupted input"
    QCheck.(pair (make ~print:json_to_string gen_json) (int_bound 100_000))
    (fun (j, seed) ->
      let rng = Batsched_numeric.Rng.create seed in
      match parse (Fuzz.mutate ~rng (json_to_string j)) with
      | (_ : t) -> true
      | exception Bad_json _ -> true
      | exception _ -> false)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_json_fuzz_no_crash;
      prop_instrumented_matches_uninstrumented;
      prop_histogram_merge_deterministic;
      prop_tail_chunking_invariant;
      prop_dash_live_equals_replay ]

let () =
  Alcotest.run "obs"
    [ ( "no perturbation",
        [ Alcotest.test_case "published instances, pool 1" `Quick
            test_active_sink_identical_sequential;
          Alcotest.test_case "published instances, pool 4" `Quick
            test_active_sink_identical_parallel;
          Alcotest.test_case "full telemetry stack" `Quick
            test_full_telemetry_identical ] );
      ( "counters",
        [ Alcotest.test_case "repeatable" `Quick test_counters_repeatable;
          Alcotest.test_case "pool-size invariant" `Quick
            test_counters_pool_size_invariant;
          Alcotest.test_case "count real work" `Quick
            test_counters_count_real_work ] );
      ( "trace",
        [ Alcotest.test_case "well-formed JSON" `Quick test_trace_wellformed;
          Alcotest.test_case "noop trace valid" `Quick test_trace_noop_valid;
          Alcotest.test_case "expected phases" `Quick
            test_trace_has_expected_phases;
          Alcotest.test_case "spans nest" `Quick test_spans_nest;
          Alcotest.test_case "report lists every counter" `Quick
            test_report_lists_counters ] );
      ( "log",
        [ Alcotest.test_case "quiet by default" `Quick
            test_log_quiet_by_default;
          Alcotest.test_case "level filters" `Quick test_log_level_filters;
          Alcotest.test_case "disabled thunk not forced" `Quick
            test_log_disabled_thunk_not_forced;
          Alcotest.test_case "of_string" `Quick test_log_of_string ] );
      ( "histograms",
        [ Alcotest.test_case "quantile vs Stats.percentile" `Quick
            test_histogram_quantile_matches_stats;
          Alcotest.test_case "registry pool-size invariant" `Quick
            test_histogram_registry_pool_invariant;
          Alcotest.test_case "disabled registry records nothing" `Quick
            test_histogram_disabled_noop ] );
      ( "events",
        [ Alcotest.test_case "JSONL well-formed" `Quick
            test_events_jsonl_wellformed;
          Alcotest.test_case "annealing stream" `Quick
            test_events_annealing_stream;
          Alcotest.test_case "noop inactive" `Quick test_events_noop_inactive
        ] );
      ( "openmetrics",
        [ Alcotest.test_case "exposition lint" `Quick test_openmetrics_lint;
          Alcotest.test_case "label escaping" `Quick
            test_openmetrics_escaping;
          Alcotest.test_case "scientific-notation bucket bounds" `Quick
            test_openmetrics_sci_notation_buckets ] );
      ( "tail",
        [ Alcotest.test_case "truncation sweep" `Quick
            test_tail_truncation_sweep ] );
      ( "ledger",
        [ Alcotest.test_case "roundtrip" `Quick test_ledger_roundtrip;
          Alcotest.test_case "find and gc" `Quick test_ledger_find_and_gc ] );
      ( "profile",
        [ Alcotest.test_case "staircase lookups and ERT" `Quick
            test_profile_staircase;
          Alcotest.test_case "evals axis pool-size invariant" `Quick
            test_profile_evals_axis_pool_invariant;
          Alcotest.test_case "bootstrap dominance" `Quick
            test_profile_dominance;
          Alcotest.test_case "curve extraction memory = file" `Quick
            test_profile_curve_extraction ] );
      ( "dash",
        [ Alcotest.test_case "summary content" `Quick
            test_dash_summary_content;
          Alcotest.test_case "memory events bit-identical" `Quick
            test_memory_events_identical ] );
      ( "bench-compare",
        [ Alcotest.test_case "work-profile diff informational" `Quick
            test_compare_work_profile;
          Alcotest.test_case "classification" `Quick test_compare_classify;
          Alcotest.test_case "join, twins, gate" `Quick
            test_compare_rows_join;
          Alcotest.test_case "regression gate" `Quick
            test_compare_regression_gate;
          Alcotest.test_case "normalization" `Quick test_compare_normalize;
          Alcotest.test_case "committed snapshots" `Quick
            test_compare_committed_snapshots ] );
      ( "json",
        [ Alcotest.test_case "nesting cap" `Quick test_json_nesting_cap;
          Alcotest.test_case "bad unicode escape" `Quick
            test_json_bad_unicode_escape ] );
      ( "report",
        [ Alcotest.test_case "superseded sink safe" `Quick
            test_report_superseded_sink;
          Alcotest.test_case "two sinks keep their own spans" `Quick
            test_two_sinks_keep_own_spans;
          Alcotest.test_case "renders histograms" `Quick
            test_report_renders_histograms ] );
      ("properties", qcheck_tests) ]
