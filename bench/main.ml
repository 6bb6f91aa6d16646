(* Benchmark harness.

   Two halves:

   1. Reproductions — regenerate every table and figure of the paper
      (the rows/series the paper reports), via the experiment registry.
      One section per artifact: table1..table4, fig3..fig5, plus the
      supporting curves/ablation/baselines/scaling experiments.

   2. Timing — Bechamel micro/meso benchmarks, one scenario per paper
      artifact (how long regenerating each costs) plus kernel benches
      (RV sigma evaluation, window sweep, DP knapsack) across sizes,
      scaling instances up to n64, and a parallel-vs-sequential
      multistart pair.  The `*-reference` and `rv-kernel-direct` rows
      time the seed implementations the shipped paths are checked
      against; those live in the test-only `batsched_oracles` library
      (test/oracles/), which this harness links.

   Run everything:        dune exec bench/main.exe
   Reproductions only:    dune exec bench/main.exe -- tables
   Timing only:           dune exec bench/main.exe -- timing
   Timing + JSON dump:    dune exec bench/main.exe -- timing --json BENCH_2026-08-06.json
   One-shot sanity pass:  dune exec bench/main.exe -- --smoke   (or: dune build @bench-smoke)
   One experiment:        dune exec bench/main.exe -- table3
                          (an unknown name exits 2 and lists the known ones)
   Compare snapshots:     dune exec bench/main.exe -- --compare OLD.json NEW.json
                          (--normalize divides out overall machine speed;
                           exits 1 on a confident regression)

   Telemetry sinks: --metrics FILE writes an OpenMetrics exposition,
   --ledger DIR records a run manifest (wall time, counters, git rev)
   to the run registry; BATSCHED_METRICS / BATSCHED_LEDGER are the
   env equivalents. *)

open Bechamel
open Toolkit

(* Observability: --stats prints a counter/timing report, --trace FILE
   dumps a Chrome trace.  Reproduction and smoke scenarios run under a
   span each, so the trace shows where a full bench run spends time. *)
let obs = ref Batsched_obs.Sink.noop

(* --- half 1: reproductions --- *)

let run_reproductions names =
  let selected =
    match names with
    | [] -> Batsched_experiments.Registry.all
    | _ ->
        List.filter_map Batsched_experiments.Registry.find names
  in
  List.iter
    (fun (e : Batsched_experiments.Registry.experiment) ->
      let out = Batsched_obs.Sink.with_span !obs e.name e.run in
      Printf.printf "=== %s: %s ===\n%s\n%!" e.name e.title out)
    selected

(* --- half 2: timing scenarios ---

   Each scenario is a (name, thunk) pair; the same list drives the
   Bechamel estimation run, the --smoke single-shot sanity pass, and
   the --json dump. *)

let model = Batsched_battery.Rakhmatov.model ()

let g3_profile =
  let g = Batsched_taskgraph.Instances.g3 in
  let cfg = Batsched.Config.make ~deadline:230.0 () in
  let r = Batsched.Iterate.run cfg g in
  Batsched_sched.Schedule.to_profile g r.Batsched.Iterate.schedule

let fork_join n_widths =
  let rng = Batsched_numeric.Rng.create 42 in
  Batsched_taskgraph.Generators.fork_join ~rng
    ~spec:Batsched_taskgraph.Generators.default_spec ~widths:n_widths

let scenario_kernels =
  [ ("rv-sigma/g3-schedule",
     fun () -> ignore (Batsched_battery.Model.sigma_end model g3_profile));
    ("rv-sigma-reference/g3-schedule",
     (let at = Batsched_battery.Profile.length g3_profile in
      fun () ->
        ignore (Batsched_oracles.Rakhmatov.sigma_reference g3_profile ~at)));
    ("kibam-sigma/g3-schedule",
     fun () ->
       ignore
         (Batsched_battery.Model.sigma_end
            (Batsched_battery.Kibam.model ())
            g3_profile));
    (let params =
       Batsched_battery.Diffusion.make_params ~nodes:32 ~dt:0.1 ~alpha:40375.0
         ~beta:0.273 ()
     in
     let pulse =
       Batsched_battery.Profile.constant ~current:800.0 ~duration:20.0
     in
     ("pde-sigma/20min-pulse",
      fun () -> ignore (Batsched_battery.Diffusion.sigma ~params pulse ~at:20.0)));
    (let g = Batsched_taskgraph.Instances.g3 in
     let pes = Batsched_multiproc.Mschedule.Pe.uniform 2 in
     ("multiproc/battery-aware-2pe",
      fun () ->
        ignore
          (Batsched_multiproc.Mheuristics.battery_aware ~model g ~pes
             ~deadline:150.0)));
    ("rv-kernel/10-terms",
     fun () -> ignore (Batsched_numeric.Series.kernel ~beta:0.273 5.0 25.0));
    ("rv-kernel-direct/10-terms",
     fun () ->
       ignore (Batsched_oracles.Series.kernel_direct ~beta:0.273 5.0 25.0));
    (let g = Batsched_taskgraph.Instances.g3 in
     ("dp-knapsack/g3-d230",
      fun () ->
        ignore
          (Batsched_baselines.Dp_energy.select_design_points g ~deadline:230.0)));
    (let g = Batsched_taskgraph.Instances.g3 in
     let cfg = Batsched.Config.make ~deadline:230.0 () in
     let seq = Batsched_sched.Priorities.sequence_dec_energy g in
     ("choose-dp/g3-window0",
      fun () ->
        ignore
          (Batsched.Choose.choose_design_points cfg g ~sequence:seq
             ~window_start:0))) ]

(* one scenario per paper artifact: the cost of regenerating it *)
let scenario_artifacts =
  [ (let g = Batsched_taskgraph.Instances.g3 in
     ("table2+3/iterate-g3",
      fun () ->
        let cfg = Batsched.Config.make ~deadline:230.0 () in
        ignore (Batsched.Iterate.run cfg g)));
    (let g = Batsched_taskgraph.Instances.g2 in
     ("table4/g2-three-deadlines",
      fun () ->
        List.iter
          (fun deadline ->
            let cfg = Batsched.Config.make ~deadline () in
            ignore (Batsched.Iterate.run cfg g);
            ignore (Batsched_baselines.Dp_energy.run ~model g ~deadline))
          Batsched_taskgraph.Instances.g2_deadlines));
    ("fig5/g2-dot",
     fun () ->
       ignore
         (Batsched_taskgraph.Textio.to_dot Batsched_taskgraph.Instances.g2));
    ("curves/rate-capacity",
     fun () ->
       ignore
         (Batsched_battery.Curves.rate_capacity
            ~cell:Batsched_battery.Cell.itsy
            ~currents:[ 100.0; 400.0; 1600.0 ]));
    ("table1/instance-echo",
     fun () ->
       ignore
         (Batsched_taskgraph.Textio.to_string Batsched_taskgraph.Instances.g3));
    ("fig3/window-masks",
     fun () ->
       List.iter
         (fun ws ->
           ignore
             (Batsched.Window.mask Batsched_taskgraph.Instances.g2
                ~window_start:ws))
         [ 0; 1; 2 ]);
    (let g =
       let t id =
         Batsched_taskgraph.Task.of_pairs ~id
           ~name:(Printf.sprintf "T%d" (id + 1))
           [ (800.0, 2.0); (400.0, 4.0); (200.0, 6.0); (100.0, 8.0) ]
       in
       Batsched_taskgraph.Graph.make ~label:"fig4" ~edges:[] (List.init 5 t)
     in
     let a = Batsched_sched.Assignment.of_list g [ 1; 3; 1; 0; 3 ] in
     ("fig4/dpf-worked-example",
      fun () ->
        ignore
          (Batsched_sched.Metrics.dpf_static g a ~free:[ 0; 1 ]
             ~window_start:0)));
    (let g = Batsched_taskgraph.Instances.g2 in
     ("ablation/one-knockout-g2",
      fun () ->
        let weights =
          { Batsched.Config.paper_weights with Batsched.Config.dpf = 0.0 }
        in
        let cfg = Batsched.Config.make ~weights ~deadline:75.0 () in
        ignore (Batsched.Iterate.run cfg g)));
    (let g = Batsched_taskgraph.Instances.g3 in
     ("mechanisms/full-window-only-g3",
      fun () ->
        let cfg =
          Batsched.Config.make ~full_window_only:true ~deadline:230.0 ()
        in
        ignore (Batsched.Iterate.run cfg g)));
    (let g = Batsched_taskgraph.Instances.g3 in
     ("beta/one-point",
      fun () ->
        let model = Batsched_battery.Rakhmatov.model ~beta:0.7 () in
        let cfg = Batsched.Config.make ~model ~deadline:230.0 () in
        ignore (Batsched.Iterate.run cfg g)));
    (let cycle = Batsched_battery.Profile.constant ~current:800.0 ~duration:20.0 in
     ("endurance/cycles-to-death",
      fun () ->
        ignore
          (Batsched_battery.Periodic.cycles_to_death ~max_cycles:20 ~model
             ~alpha:65000.0 ~period:40.0 cycle))) ]

let scenario_scaling =
  let iterate (label, widths) =
    let g = fork_join widths in
    let deadline =
      Batsched_taskgraph.Generators.feasible_deadline g ~slack:0.6
    in
    let cfg = Batsched.Config.make ~deadline () in
    ("scaling/iterate-" ^ label, fun () -> ignore (Batsched.Iterate.run cfg g))
  in
  let multistart (label, pool) =
    (* the n16 instance, 8 starts: big enough for the fan-out to bite,
       small enough for a 0.5 s Bechamel quota *)
    let g = fork_join [ 5; 4; 4 ] in
    let deadline =
      Batsched_taskgraph.Generators.feasible_deadline g ~slack:0.6
    in
    let cfg = Batsched.Config.make ~pool ~deadline () in
    ( "scaling/multistart-n16-" ^ label,
      fun () ->
        let rng = Batsched_numeric.Rng.create 7 in
        ignore (Batsched.Iterate.run_multistart ~rng ~starts:8 cfg g) )
  in
  List.map iterate
    [ ("n8", [ 3; 2 ]);
      ("n16", [ 5; 4; 4 ]);
      ("n26", [ 6; 6; 6; 4 ]);
      ("n64", [ 15; 15; 15; 14 ]) ]
  @ List.map multistart
      [ ("sequential", Batsched_numeric.Pool.sequential);
        ("parallel", Batsched_numeric.Pool.create_recommended ()) ]

(* The incremental-vs-reference choose pair on one n64 instance: same
   graph, same sequence, same window, only the CalculateDPF evaluation
   strategy differs — the ratio of the two rows is the speedup the
   incremental path buys, machine-independently.  The reference row
   times the test oracle, which costs every trial through the public
   [Metrics] functions.  The annealing pair plays the same role for
   the delta schedule evaluator: the same short walk (same params,
   same seed, same RNG stream) costed through [Eval]'s O(1) moves
   versus the full schedule + sigma path — their ratio is the
   delta-evaluation speedup on a workload that, unlike [Iterate],
   revisits near-identical profiles thousands of times. *)
let scenario_choose =
  let g = fork_join [ 15; 15; 15; 14 ] in
  let deadline =
    Batsched_taskgraph.Generators.feasible_deadline g ~slack:0.6
  in
  let cfg = Batsched.Config.make ~deadline () in
  let seq = Batsched_sched.Priorities.sequence_dec_energy g in
  let anneal_params =
    { Batsched_baselines.Annealing.initial_temperature = 2000.0;
      cooling = 0.8;
      steps_per_temperature = 10;
      temperature_floor = 500.0 }
  in
  (* same walk, same seed, same RNG stream; only the candidate-costing
     path differs — the per-model delta/reference ratio is the speedup
     the matching evaluation strategy buys (KiBaM: closed-form
     suffix-coordinate terms; diffusion: checkpointed PDE restarts) *)
  let anneal m path () =
    let rng = Batsched_numeric.Rng.create 11 in
    ignore
      (match path with
       | `Delta ->
           Batsched_baselines.Annealing.run ~params:anneal_params ~rng
             ~model:m g ~deadline
       | `Reference ->
           Batsched_oracles.Annealing.run ~params:anneal_params ~rng
             ~model:m g ~deadline)
  in
  let kibam = Batsched_battery.Kibam.model () in
  let diffusion =
    (* coarse grid: the pair measures the checkpointing strategy, not
       the grid resolution, and the default 64-node grid is far too
       slow for a 0.5 s Bechamel quota *)
    let params =
      Batsched_battery.Diffusion.make_params ~nodes:16 ~dt:0.5 ~alpha:40375.0
        ~beta:0.273 ()
    in
    Batsched_battery.Diffusion.model ~params ()
  in
  [ ("choose-n64/window0",
     fun () ->
       ignore
         (Batsched.Choose.choose_design_points cfg g ~sequence:seq
            ~window_start:0));
    ("choose-n64-reference/window0",
     fun () ->
       ignore
         (Batsched_oracles.Choose.choose_design_points cfg g ~sequence:seq
            ~window_start:0));
    ("anneal-n64-delta/short-walk", anneal model `Delta);
    ("anneal-n64-reference/short-walk", anneal model `Reference);
    ("anneal-n64-kibam-delta/short-walk", anneal kibam `Delta);
    ("anneal-n64-kibam-reference/short-walk", anneal kibam `Reference);
    ("anneal-n64-diffusion-delta/short-walk", anneal diffusion `Delta);
    ("anneal-n64-diffusion-reference/short-walk", anneal diffusion `Reference)
  ]

(* The pool on a deliberately imbalanced multistart: 16 short anneal
   trials whose budgets spread 10x, every heavy trial sitting at a
   stride-4 position — the placement that would hand a static strided
   split all the heavy trials on one worker.  The persistent 4-slot
   pool deals the trials from its cursor in small chunks, so a slot
   that drew light trials claims more while a heavy one runs.  The
   serve-soak row drives the whole daemon path — parse, admission,
   pool jobs, histograms — over the generator mix the CI smoke fixture
   uses. *)
let scenario_serve =
  let pool4 = Batsched_numeric.Pool.create 4 in
  let g8 = fork_join [ 3; 2 ] in
  let deadline =
    Batsched_taskgraph.Generators.feasible_deadline g8 ~slack:0.6
  in
  let params steps =
    { Batsched_baselines.Annealing.initial_temperature = 8.0;
      cooling = 0.5;
      steps_per_temperature = steps;
      temperature_floor = 1.0 }
  in
  let budgets = Array.init 16 (fun i -> if i mod 4 = 0 then 30 else 3) in
  let trial i =
    let rng = Batsched_numeric.Rng.create (100 + i) in
    ignore
      (Batsched_baselines.Annealing.run ~params:(params budgets.(i)) ~rng
         ~model g8 ~deadline)
  in
  let ixs = Array.init 16 (fun i -> i) in
  [ ("multistart-imbalanced/steal",
     fun () -> ignore (Batsched_numeric.Pool.map_array pool4 trial ixs));
    ("serve-soak/mixed-200",
     fun () -> ignore (Batsched_serve.Soak.run ~pool:pool4 ~n:200 ())) ]

(* Periodic endurance, fast vs oracle: the same mission costed through
   the O(cycles) closed-form kernel and the from-scratch quadratic
   replay.  Both rows censor at the cycle cap (alpha far above reach),
   so the cap IS the workload; the fast/reference ratio at 60 vs 240
   cycles shows the superlinear win (the oracle's cost grows with the
   square of the cycle count, the kernel's linearly).  The fleet row is
   the whole Monte Carlo engine — sampler, batch kernel, survival
   accumulators — over the built-in 100k-device population, the
   devices/sec figure EXPERIMENTS.md quotes. *)
let scenario_fleet =
  let mission =
    Batsched_battery.Profile.constant ~current:800.0 ~duration:20.0
  in
  let fast cycles () =
    ignore
      (Batsched_battery.Periodic.cycles_to_death ~max_cycles:cycles ~model
         ~alpha:1e9 ~period:40.0 mission)
  in
  let reference cycles () =
    ignore
      (Batsched_oracles.Periodic.cycles_to_death_reference ~max_cycles:cycles
         ~model ~alpha:1e9 ~period:40.0 mission)
  in
  let pool4 = Batsched_numeric.Pool.create 4 in
  [ ("periodic-fast/rv-60", fast 60);
    ("periodic-reference/rv-60", reference 60);
    ("periodic-fast/rv-240", fast 240);
    ("periodic-reference/rv-240", reference 240);
    ("fleet-100k/default-pool4",
     fun () ->
       ignore
         (Batsched_fleet.Engine.run ~pool:pool4
            ~spec:Batsched_fleet.Spec.default ~devices:100_000 ~seed:42 ()))
  ]

let scenarios =
  scenario_kernels @ scenario_artifacts @ scenario_scaling @ scenario_choose
  @ scenario_serve @ scenario_fleet

(* --- smoke: run every scenario exactly once --- *)

(* Delta-vs-oracle cross-check, smoke only (it is a verification, not a
   benchmark): drive a random precedence-respecting move trace through
   the incremental evaluator on the published instances and a generated
   one, and compare its committed sigma/finish against the full
   [Schedule] path at checkpoints.  A relative disagreement beyond 1e-9
   aborts the smoke run — and with it @bench-smoke, @check and CI. *)
let delta_cross_check () =
  let check_instance ~model label g ~deadline =
    let rng = Batsched_numeric.Rng.create 123 in
    let sol = Batsched_baselines.Chowdhury.run ~model g ~deadline in
    let ev =
      Batsched_sched.Eval.make ~model g sol.Batsched_baselines.Solution.schedule
    in
    let n = Batsched_taskgraph.Graph.num_tasks g in
    let m = Batsched_taskgraph.Graph.num_points g in
    let check step =
      let sched = Batsched_sched.Eval.to_schedule ev in
      let oracle_sigma = Batsched_sched.Schedule.battery_cost ~model g sched in
      let oracle_finish = Batsched_sched.Schedule.finish_time g sched in
      let agree got want = Float.abs (got -. want) <= 1e-9 *. (1.0 +. Float.abs want) in
      if not (agree (Batsched_sched.Eval.sigma ev) oracle_sigma) then
        failwith
          (Printf.sprintf
             "delta cross-check: sigma diverged on %s after %d moves: \
              delta=%.17g oracle=%.17g"
             label step (Batsched_sched.Eval.sigma ev) oracle_sigma);
      if not (agree (Batsched_sched.Eval.finish ev) oracle_finish) then
        failwith
          (Printf.sprintf
             "delta cross-check: finish diverged on %s after %d moves: \
              delta=%.17g oracle=%.17g"
             label step (Batsched_sched.Eval.finish ev) oracle_finish)
    in
    check 0;
    for step = 1 to 200 do
      (if Batsched_numeric.Rng.bool rng && n >= 2 then begin
         let k = Batsched_numeric.Rng.int rng (n - 1) in
         if Batsched_sched.Eval.swap_allowed ev k then begin
           ignore (Batsched_sched.Eval.try_swap ev k);
           Batsched_sched.Eval.commit ev
         end
       end
       else begin
         let i = Batsched_numeric.Rng.int rng n in
         let j = Batsched_numeric.Rng.int rng m in
         if j <> Batsched_sched.Eval.column ev i then begin
           ignore (Batsched_sched.Eval.try_repoint ev ~task:i ~col:j);
           Batsched_sched.Eval.commit ev
         end
       end);
      if step mod 25 = 0 then check step
    done;
    Printf.printf "smoke %-40s ok\n%!" ("delta-cross-check/" ^ label)
  in
  check_instance ~model "g2" Batsched_taskgraph.Instances.g2
    ~deadline:(List.hd Batsched_taskgraph.Instances.g2_deadlines);
  check_instance ~model "g3" Batsched_taskgraph.Instances.g3 ~deadline:230.0;
  let g = fork_join [ 5; 4; 4 ] in
  let n16_deadline =
    Batsched_taskgraph.Generators.feasible_deadline g ~slack:0.6
  in
  check_instance ~model "fork-join-n16" g ~deadline:n16_deadline;
  (* the other delta strategies: KiBaM goes through the closed-form
     suffix-coordinate incremental terms, diffusion through the
     checkpointed PDE stepper — same oracle, same tolerance *)
  let kibam = Batsched_battery.Kibam.model () in
  check_instance ~model:kibam "kibam-g2" Batsched_taskgraph.Instances.g2
    ~deadline:(List.hd Batsched_taskgraph.Instances.g2_deadlines);
  check_instance ~model:kibam "kibam-fork-join-n16" g ~deadline:n16_deadline;
  let diffusion =
    let params =
      Batsched_battery.Diffusion.make_params ~nodes:8 ~dt:1.0 ~alpha:40375.0
        ~beta:0.273 ()
    in
    Batsched_battery.Diffusion.model ~params ()
  in
  check_instance ~model:diffusion "diffusion-g2" Batsched_taskgraph.Instances.g2
    ~deadline:(List.hd Batsched_taskgraph.Instances.g2_deadlines)

let run_smoke () =
  List.iter
    (fun (name, fn) ->
      Batsched_obs.Sink.with_span !obs name fn;
      Printf.printf "smoke %-40s ok\n%!" name)
    scenarios;
  delta_cross_check ()

(* --- work profile: counters from one instrumented run per scenario ---

   Wall time alone cannot tell an algorithmic regression from machine
   noise; the counter snapshot records how much work each scenario did
   (sigma evaluations, cache hit rates, pool fan-out) and how much it
   allocated ([Gc] word deltas; main domain only, so parallel scenarios
   under-report worker allocations).  Counts are deterministic for a
   fixed scenario, so BENCH_*.json diffs cleanly across PRs — the
   allocation words are exact repeats too, modulo first-call cache
   warm-up. *)

type profile_row = {
  counters : Batsched_numeric.Probe.t;
  minor_words : float;
  major_words : float;
  promoted_words : float;
}

let work_profile () =
  List.map
    (fun (name, fn) ->
      Batsched_numeric.Probe.reset ();
      (* [Gc.minor_words] reads the allocation pointer, so the minor
         delta is word-exact; [quick_stat] only refreshes the major/
         promoted totals at collection boundaries, which is fine for
         the coarser major-heap numbers *)
      let s0 = Gc.quick_stat () in
      let w0 = Gc.minor_words () in
      fn ();
      let w1 = Gc.minor_words () in
      let s1 = Gc.quick_stat () in
      ( name,
        { counters = Batsched_numeric.Probe.totals ();
          minor_words = w1 -. w0;
          major_words = s1.Gc.major_words -. s0.Gc.major_words;
          promoted_words = s1.Gc.promoted_words -. s0.Gc.promoted_words } ))
    scenarios

(* --- bechamel estimation --- *)

(* One timing row.  The rerun guard (below) fills [ns_first] and
   [low_confidence] for rows whose first OLS fit was too noisy to
   trust; both land in the JSON dump so [--compare] can widen its
   threshold by the observed dispersion. *)
type timing_row = {
  tname : string;
  ns_per_run : float;
  r_square : float;
  ns_first : float option;
  low_confidence : bool;
}

let estimate_scenarios ~quota named =
  let tests =
    List.map (fun (name, fn) -> Test.make ~name (Staged.stage fn)) named
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second quota) ~kde:(Some 100) ()
  in
  (* analyze with ordinary least squares against run count *)
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let grouped = Test.make_grouped ~name:"batsched" tests in
  let results = Benchmark.all cfg instances grouped in
  let analysis = Analyze.all ols Instance.monotonic_clock results in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let estimate =
        match Analyze.OLS.estimates ols_result with
        | Some [ e ] -> e
        | _ -> Float.nan
      in
      let r2 =
        match Analyze.OLS.r_square ols_result with
        | Some r -> r
        | None -> Float.nan
      in
      rows := (name, estimate, r2) :: !rows)
    analysis;
  List.sort compare !rows

(* Fit-quality guard: a row whose OLS fit explains less than half the
   variance is re-measured once with 4x the quota.  The second
   estimate wins either way; rows still under the bar are tagged
   low-confidence, so [--compare] warns instead of gating on them. *)
let r2_floor = 0.5

let rerun_guard rows =
  let scenario_of name =
    let bare =
      match String.index_opt name '/' with
      | Some i when not (List.mem_assoc name scenarios) ->
          String.sub name (i + 1) (String.length name - i - 1)
      | _ -> name
    in
    Option.map (fun fn -> (name, fn)) (List.assoc_opt bare scenarios)
  in
  List.map
    (fun (name, estimate, r2) ->
      let fresh =
        { tname = name;
          ns_per_run = estimate;
          r_square = r2;
          ns_first = None;
          low_confidence = false }
      in
      if Float.is_finite r2 && r2 >= r2_floor then fresh
      else
        match scenario_of name with
        | None -> { fresh with low_confidence = true }
        | Some named -> (
            Printf.printf "rerun %-39s (r^2 %.4f below %.1f)\n%!" name r2
              r2_floor;
            match estimate_scenarios ~quota:2.0 [ named ] with
            | [ (_, estimate', r2') ] ->
                { tname = name;
                  ns_per_run = estimate';
                  r_square = r2';
                  ns_first = Some estimate;
                  low_confidence = not (Float.is_finite r2' && r2' >= r2_floor)
                }
            | _ -> { fresh with low_confidence = true }))
    rows

let run_timing () =
  let rows = rerun_guard (estimate_scenarios ~quota:0.5 scenarios) in
  Printf.printf "%-40s %14s %8s\n" "benchmark" "ns/run" "r^2";
  List.iter
    (fun r ->
      Printf.printf "%-40s %14.1f %8.4f%s\n%!" r.tname r.ns_per_run r.r_square
        (if r.low_confidence then "  (low confidence)" else ""))
    rows;
  rows

(* --- JSON dump: one row per benchmark, for cross-PR tracking --- *)

let json_float x =
  if Float.is_finite x then Printf.sprintf "%.1f" x else "null"

(* Counters for a row: bechamel prefixes scenario names with the group
   ("batsched/..."), the work profile keys on the raw scenario name. *)
let counters_for profile name =
  let strip s =
    match String.index_opt s '/' with
    | Some i when List.mem_assoc s profile = false ->
        String.sub s (i + 1) (String.length s - i - 1)
    | _ -> s
  in
  List.assoc_opt (strip name) profile

let json_counters row =
  let c = row.counters in
  let fields =
    List.map
      (fun (name, get) -> Printf.sprintf "\"%s\": %d" name (get c))
      Batsched_numeric.Probe.fields
  in
  (* open-keyed counters, e.g. "periodic/carried_devices" *)
  let named =
    List.map
      (fun (name, v) -> Printf.sprintf "\"%s\": %d" (Batsched_obs.Json.escape_string name) v)
      (Batsched_numeric.Probe.named_counts c)
  in
  let rate hits misses =
    let total = hits + misses in
    if total = 0 then "null"
    else Printf.sprintf "%.4f" (float_of_int hits /. float_of_int total)
  in
  let per words calls =
    if calls = 0 then "null"
    else Printf.sprintf "%.1f" (words /. float_of_int calls)
  in
  let derived =
    [ Printf.sprintf "\"fmemo_hit_rate\": %s"
        (rate c.Batsched_numeric.Probe.fmemo_hits
           c.Batsched_numeric.Probe.fmemo_misses);
      Printf.sprintf "\"contrib_hit_rate\": %s"
        (rate c.Batsched_numeric.Probe.contrib_hits
           c.Batsched_numeric.Probe.contrib_misses);
      Printf.sprintf "\"minor_words\": %.0f" row.minor_words;
      Printf.sprintf "\"major_words\": %.0f" row.major_words;
      Printf.sprintf "\"promoted_words\": %.0f" row.promoted_words;
      Printf.sprintf "\"words_per_choose\": %s"
        (per row.minor_words c.Batsched_numeric.Probe.choose_calls);
      Printf.sprintf "\"words_per_sigma\": %s"
        (per row.minor_words c.Batsched_numeric.Probe.sigma_evals) ]
  in
  "{" ^ String.concat ", " (fields @ named @ derived) ^ "}"

(* The file opens with a provenance header: which commit produced it
   ("unknown" outside a work tree) and how wide the recommended pool is
   on this machine. *)
let write_json path rows profile =
  let oc =
    try open_out path
    with Sys_error msg ->
      Printf.eprintf "bench: cannot write %s (%s)\n%!" path msg;
      exit 2
  in
  Printf.fprintf oc "{\n  \"git_rev\": \"%s\",\n  \"pool_size\": %d,\n"
    (Batsched_obs.Json.escape_string (Batsched_obs.Ledger.git_rev ()))
    (Batsched_numeric.Pool.recommended ());
  output_string oc "  \"rows\": [\n";
  List.iteri
    (fun i r ->
      let counters =
        match counters_for profile r.tname with
        | Some c -> Printf.sprintf ", \"counters\": %s" (json_counters c)
        | None -> ""
      in
      let rerun =
        match r.ns_first with
        | Some first -> Printf.sprintf ", \"ns_per_run_first\": %s"
                          (json_float first)
        | None -> ""
      in
      let low =
        if r.low_confidence then ", \"low_confidence\": true" else ""
      in
      Printf.fprintf oc
        "    {\"name\": \"%s\", \"ns_per_run\": %s, \"r_square\": %s%s%s%s}%s\n"
        (Batsched_obs.Json.escape_string r.tname) (json_float r.ns_per_run)
        (if Float.is_finite r.r_square then
           Printf.sprintf "%.4f" r.r_square
         else "null")
        rerun low counters
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote %d rows to %s\n%!" (List.length rows) path

(* --flag VALUE extraction; order-insensitive, leaves the rest alone *)
let extract_opt flag args =
  let rec go acc = function
    | [ f ] when f = flag ->
        Printf.eprintf "bench: %s requires an output path\n%!" flag;
        exit 2
    | f :: value :: rest when f = flag -> (Some value, List.rev_append acc rest)
    | x :: rest -> go (x :: acc) rest
    | [] -> (None, List.rev acc)
  in
  go [] args

let extract_flag flag args =
  let rec go acc = function
    | f :: rest when f = flag -> (true, List.rev_append acc rest)
    | x :: rest -> go (x :: acc) rest
    | [] -> (false, List.rev acc)
  in
  go [] args

(* --compare OLD.json NEW.json [--normalize]: offline, no timing run.
   Exit 1 on a confident regression so CI can gate on it; low-confidence
   rows only warn. *)
let run_compare args =
  let normalize, args = extract_flag "--normalize" args in
  match args with
  | [ old_path; new_path ] ->
      let report =
        try Batsched_obs.Bench_compare.compare_files ~normalize old_path
              new_path
        with Sys_error msg | Failure msg ->
          Printf.eprintf "bench: --compare failed: %s\n%!" msg;
          exit 2
      in
      print_string (Batsched_obs.Bench_compare.to_string report);
      if Batsched_obs.Bench_compare.has_confident_regression report then begin
        Printf.eprintf "bench: confident regression detected\n%!";
        exit 1
      end
  | _ ->
      Printf.eprintf "usage: bench --compare OLD.json NEW.json [--normalize]\n%!";
      exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (match args with
  | "--compare" :: rest -> run_compare rest; exit 0
  | _ -> ());
  let json_out, args = extract_opt "--json" args in
  let trace, args = extract_opt "--trace" args in
  let metrics, args = extract_opt "--metrics" args in
  let ledger, args = extract_opt "--ledger" args in
  let stats, args = extract_flag "--stats" args in
  (* a misspelt name must not pass for a run that did nothing *)
  (match args with
  | [] | [ "--smoke" ] | [ "tables" ] | [ "timing" ] -> ()
  | names -> (
      match
        List.filter
          (fun n -> Batsched_experiments.Registry.find n = None)
          names
      with
      | [] -> ()
      | unknown ->
          Printf.eprintf
            "bench: unknown argument %s\n\
             known: --smoke, tables or timing alone, or experiment names: \
             %s\n%!"
            (String.concat " " unknown)
            (String.concat " " Batsched_experiments.Registry.names);
          exit 2));
  let session = Batsched_obs.Session.start { stats; trace; metrics; ledger } in
  obs := Batsched_obs.Session.sink session;
  (* fail on an unwritable --json target now, not after minutes of timing *)
  (match json_out with
  | Some path -> (
      try close_out (open_out_gen [ Open_append; Open_creat ] 0o644 path)
      with Sys_error msg ->
        Printf.eprintf "bench: cannot write %s (%s)\n%!" path msg;
        exit 2)
  | None -> ());
  let rows =
    match args with
    | [] ->
        run_reproductions [];
        print_newline ();
        Some (run_timing ())
    | [ "--smoke" ] ->
        run_smoke ();
        None
    | [ "tables" ] ->
        run_reproductions [];
        None
    | [ "timing" ] -> Some (run_timing ())
    | names ->
        run_reproductions names;
        None
  in
  (* the session's outputs, the manifest's counter snapshot included,
     come before the work profile, which resets the counters *)
  let mode = match args with [] -> "all" | parts -> String.concat "+" parts in
  Batsched_obs.Session.finish session ~manifest:(fun ~wall_s ->
      { Batsched_obs.Ledger.tool = "bench";
        label = mode;
        instance = "";
        instance_hash = "";
        model = "";
        seed = 0;
        pool_size = Batsched_numeric.Pool.recommended ();
        knobs =
          [ ("mode", mode);
            ("scenarios", string_of_int (List.length scenarios));
            ("json", match json_out with Some p -> p | None -> "") ];
        wall_s;
        sigma = None;
        finish = None;
        events_path = None;
        curve = [] });
  match (json_out, rows) with
  | Some path, Some rows -> write_json path rows (work_profile ())
  | _ -> ()
