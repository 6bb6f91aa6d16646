(* Tests for the scheduling substrate: assignments, schedules, the three
   sequencing priorities and the paper's metric kernel. *)

open Batsched_taskgraph
open Batsched_sched
module Factors = Batsched_oracles.Factors

let check_float = Alcotest.(check (float 1e-9))
let check_close eps = Alcotest.(check (float eps))

let diamond () =
  let t id pairs = Task.of_pairs ~id ~name:(Printf.sprintf "T%d" (id + 1)) pairs in
  Graph.make ~label:"diamond" ~edges:[ (0, 1); (0, 2); (1, 3); (2, 3) ]
    [ t 0 [ (400.0, 1.0); (200.0, 2.0); (50.0, 4.0) ];
      t 1 [ (600.0, 2.0); (300.0, 4.0); (80.0, 8.0) ];
      t 2 [ (500.0, 1.0); (250.0, 2.0); (60.0, 4.0) ];
      t 3 [ (450.0, 3.0); (220.0, 6.0); (70.0, 12.0) ] ]

let model = Batsched_battery.Rakhmatov.model ()

(* --- Assignment --- *)

let test_assignment_uniform_builders () =
  let g = diamond () in
  let fast = Assignment.all_fastest g in
  let slow = Assignment.all_lowest_power g in
  for i = 0 to 3 do
    Alcotest.(check int) "fast col" 0 (Assignment.column fast i);
    Alcotest.(check int) "slow col" 2 (Assignment.column slow i)
  done

let test_assignment_of_list_and_set () =
  let g = diamond () in
  let a = Assignment.of_list g [ 0; 1; 2; 0 ] in
  Alcotest.(check int) "col 1" 1 (Assignment.column a 1);
  let a' = Assignment.set a 1 2 in
  Alcotest.(check int) "functional update" 1 (Assignment.column a 1);
  Alcotest.(check int) "updated" 2 (Assignment.column a' 1)

let test_assignment_validation () =
  let g = diamond () in
  Alcotest.check_raises "length" (Invalid_argument "Assignment.of_list: length mismatch")
    (fun () -> ignore (Assignment.of_list g [ 0; 1 ]));
  Alcotest.check_raises "column" (Invalid_argument "Assignment.of_list: column out of range")
    (fun () -> ignore (Assignment.of_list g [ 0; 1; 2; 3 ]))

let test_assignment_totals () =
  let g = diamond () in
  let fast = Assignment.all_fastest g in
  check_float "time" 7.0 (Assignment.total_time g fast);
  check_float "charge" (400.0 +. 1200.0 +. 500.0 +. 1350.0)
    (Factors.total_charge g fast);
  (* voltages default to 1, so energy = charge *)
  check_float "energy" (Factors.total_charge g fast)
    (Factors.total_energy g fast)

let test_assignment_equal () =
  let g = diamond () in
  let a = Assignment.of_list g [ 0; 1; 2; 0 ] in
  let b = Assignment.of_list g [ 0; 1; 2; 0 ] in
  Alcotest.(check bool) "equal" true (Assignment.equal a b);
  Alcotest.(check bool) "not equal" false (Assignment.equal a (Assignment.set b 0 1))

let test_assignment_paper_rendering () =
  let g = diamond () in
  let a = Assignment.of_list g [ 0; 1; 2; 0 ] in
  Alcotest.(check string) "paper row" "P1,P2,P3,P1"
    (Format.asprintf "%a" (Assignment.pp_paper g) a)

(* --- Schedule --- *)

let test_schedule_rejects_bad_sequence () =
  let g = diamond () in
  Alcotest.check_raises "invalid"
    (Invalid_argument "Schedule.make: sequence is not a topological order")
    (fun () ->
      ignore
        (Schedule.make g ~sequence:[ 1; 0; 2; 3 ]
           ~assignment:(Assignment.all_fastest g)))

let test_schedule_profile_layout () =
  let g = diamond () in
  let s =
    Schedule.make g ~sequence:[ 0; 2; 1; 3 ]
      ~assignment:(Assignment.all_fastest g)
  in
  let p = Schedule.to_profile g s in
  let ivs = Batsched_battery.Profile.intervals p in
  Alcotest.(check int) "four intervals" 4 (List.length ivs);
  (* second interval is task 2 at its fastest: 500 mA starting at 1.0 *)
  (match ivs with
  | _ :: iv :: _ ->
      check_float "start" 1.0 iv.Batsched_battery.Profile.start;
      check_float "current" 500.0 iv.Batsched_battery.Profile.current
  | _ -> Alcotest.fail "expected intervals");
  check_float "finish = total time" (Schedule.finish_time g s)
    (Batsched_battery.Profile.length p)

let test_schedule_meets_deadline () =
  let g = diamond () in
  let s =
    Schedule.make g ~sequence:[ 0; 1; 2; 3 ]
      ~assignment:(Assignment.all_fastest g)
  in
  Alcotest.(check bool) "meets 7" true (Schedule.meets_deadline g s ~deadline:7.0);
  Alcotest.(check bool) "misses 6.9" false (Schedule.meets_deadline g s ~deadline:6.9)

let test_schedule_battery_cost_positive () =
  let g = diamond () in
  let s =
    Schedule.make g ~sequence:[ 0; 1; 2; 3 ]
      ~assignment:(Assignment.all_fastest g)
  in
  Alcotest.(check bool) "positive and above coulombs" true
    (Schedule.battery_cost ~model g s
     > Factors.total_charge g (Assignment.all_fastest g))

let test_schedule_currents_in_sequence_order () =
  let g = diamond () in
  let s =
    Schedule.make g ~sequence:[ 0; 2; 1; 3 ]
      ~assignment:(Assignment.all_fastest g)
  in
  Alcotest.(check (list (float 1e-9))) "currents" [ 400.0; 500.0; 600.0; 450.0 ]
    (List.map
       (fun iv -> iv.Batsched_battery.Profile.current)
       (Batsched_battery.Profile.intervals (Schedule.to_profile g s)))

(* --- Priorities --- *)

let test_sequence_dec_energy_orders_by_avg_energy () =
  let g = diamond () in
  (* avg energies: T1 (id0): (400+400+200)/3 = 333.3; T2 (id1):
     (1200+1200+640)/3 = 1013.3; T3 (id2): (500+500+240)/3 = 413.3; T4:
     (1350+1320+840)/3 = 1170.  After source 0, ready = {1,2}: 1 wins. *)
  Alcotest.(check (list int)) "order" [ 0; 1; 2; 3 ]
    (Priorities.sequence_dec_energy g)

let test_weighted_sequence_uses_chosen_currents () =
  let g = diamond () in
  (* make task 2's chosen current dominate: assign task 1 to its lowest
     power (80 mA) and task 2 to fastest (500): w(2) > w(1) *)
  let a = Assignment.of_list g [ 0; 2; 0; 0 ] in
  let seq = Priorities.weighted_sequence g a in
  Alcotest.(check (list int)) "order" [ 0; 2; 1; 3 ] seq

let test_greedy_mean_current_valid () =
  let g = diamond () in
  let a = Assignment.all_fastest g in
  Alcotest.(check bool) "topological" true
    (Analysis.is_topological g (Priorities.greedy_mean_current g a))

(* --- Metrics --- *)

let test_slack_ratio () =
  check_float "half used" 0.5 (Factors.slack_ratio ~deadline:10.0 ~time:5.0);
  check_float "exact" 0.0 (Factors.slack_ratio ~deadline:10.0 ~time:10.0);
  Alcotest.(check bool) "negative over deadline" true
    (Factors.slack_ratio ~deadline:10.0 ~time:12.0 < 0.0)

let test_current_ratio_bounds () =
  let g = diamond () in
  (* global range: 50 .. 600 *)
  check_float "min" 0.0 (Factors.current_ratio g 50.0);
  check_float "max" 1.0 (Factors.current_ratio g 600.0);
  check_close 1e-9 "mid" ((300.0 -. 50.0) /. 550.0) (Factors.current_ratio g 300.0)

let test_energy_ratio_bounds () =
  let g = diamond () in
  check_float "all slowest" 0.0 (Factors.energy_ratio g (Assignment.all_lowest_power g));
  check_float "all fastest" 1.0 (Factors.energy_ratio g (Assignment.all_fastest g))

let test_cif_counts_increases () =
  let g = diamond () in
  let a = Assignment.all_fastest g in
  (* currents in order 0,1,2,3: 400,600,500,450 -> one increase of three
     transitions *)
  check_close 1e-9 "one third" (1.0 /. 3.0)
    (Factors.current_increase_fraction g a [ 0; 1; 2; 3 ]);
  (* order 1,0: wait, must be topological-agnostic: metric works on any
     list *)
  check_float "single task" 0.0 (Factors.current_increase_fraction g a [ 0 ])

let test_cif_extremes () =
  let t id pairs = Task.of_pairs ~id ~name:(Printf.sprintf "T%d" id) pairs in
  let g =
    Graph.make ~edges:[]
      [ t 0 [ (100.0, 1.0) ]; t 1 [ (200.0, 1.0) ]; t 2 [ (300.0, 1.0) ] ]
  in
  let a = Assignment.all_fastest g in
  check_float "strictly rising" 1.0
    (Factors.current_increase_fraction g a [ 0; 1; 2 ]);
  check_float "strictly falling" 0.0
    (Factors.current_increase_fraction g a [ 2; 1; 0 ])

let test_dpf_static_paper_example () =
  (* Figure 4-c: m = 4, full window; free = {T1 at DP2, T2 at DP4} *)
  let t id = Task.of_pairs ~id ~name:(Printf.sprintf "T%d" (id + 1))
      [ (800.0, 2.0); (400.0, 4.0); (200.0, 6.0); (100.0, 8.0) ]
  in
  let g = Graph.make ~edges:[] (List.init 5 t) in
  let a = Assignment.of_list g [ 1; 3; 1; 0; 3 ] in
  check_close 1e-12 "paper value" (1.0 /. 3.0)
    (Metrics.dpf_static g a ~free:[ 0; 1 ] ~window_start:0)

let test_dpf_static_extremes () =
  let g = diamond () in
  (* all free tasks at lowest power -> weight 0 -> DPF 0 *)
  check_float "all lowest" 0.0
    (Metrics.dpf_static g (Assignment.all_lowest_power g) ~free:[ 0; 1; 2 ]
       ~window_start:0);
  (* all free tasks at the fastest column -> weight 1 each -> DPF 1 *)
  check_float "all fastest" 1.0
    (Metrics.dpf_static g (Assignment.all_fastest g) ~free:[ 0; 1; 2 ]
       ~window_start:0);
  (* no free tasks -> 0 *)
  check_float "no free" 0.0
    (Metrics.dpf_static g (Assignment.all_fastest g) ~free:[] ~window_start:0)

let test_dpf_static_window_relative () =
  let g = diamond () in
  (* window 1..2 (0-based): column 1 has weight 1, column 2 weight 0 *)
  let a = Assignment.of_list g [ 1; 2; 1; 2 ] in
  check_float "half" 0.5
    (Metrics.dpf_static g a ~free:[ 0; 1 ] ~window_start:1);
  (* single-column window -> degenerate 0 *)
  check_float "degenerate" 0.0
    (Metrics.dpf_static g a ~free:[ 0; 1 ] ~window_start:2)

let test_suitability_sum () =
  check_float "sum" 2.5
    (Factors.suitability ~sr:0.5 ~cr:0.5 ~enr:0.5 ~cif:0.5 ~dpf:0.5)

(* --- Continuous relaxation --- *)

let cube_graph () =
  (* tasks whose design points lie exactly on the cube law, so the
     relaxation is a true lower bound for them *)
  let mk id base_current base_duration =
    let pairs, voltages =
      Designpoints.cube_law ~base_current ~base_duration
        ~factors:[ 1.0; 0.8; 0.6; 0.4 ] ()
    in
    Task.of_pairs ~id ~name:(Printf.sprintf "T%d" (id + 1)) ~voltages pairs
  in
  Graph.make ~label:"cube" ~edges:[ (0, 1); (1, 2) ]
    [ mk 0 900.0 2.0; mk 1 500.0 3.0; mk 2 700.0 1.5 ]

let test_continuous_infeasible () =
  let g = cube_graph () in
  Alcotest.check_raises "below fastest" Continuous.Infeasible (fun () ->
      ignore (Continuous.relax g ~deadline:5.0))

let test_continuous_exhausts_deadline () =
  let g = cube_graph () in
  let deadline = 12.0 in
  let sol = Continuous.relax g ~deadline in
  let total = Array.fold_left ( +. ) 0.0 sol.Continuous.durations in
  check_close 1e-6 "active constraint" deadline total

let test_continuous_kkt_stationarity () =
  (* interior scalings satisfy u_i^3 * 2 I_i = lambda *)
  let g = cube_graph () in
  let sol = Continuous.relax g ~deadline:12.0 in
  Array.iteri
    (fun i u ->
      if u < 1.0 -. 1e-9 then
        check_close 1e-6 "kkt"
          sol.Continuous.lambda
          (2.0 *. (Task.fastest (Graph.task g i)).Task.current *. (u ** 3.0)))
    sol.Continuous.scalings

let test_continuous_bounds_discrete_choices () =
  (* every deadline-feasible discrete assignment of a cube-law graph
     has at least the relaxed charge *)
  let g = cube_graph () in
  let deadline = 12.0 in
  let bound = Continuous.lower_bound_charge g ~deadline in
  let m = Graph.num_points g in
  for c0 = 0 to m - 1 do
    for c1 = 0 to m - 1 do
      for c2 = 0 to m - 1 do
        let a = Assignment.of_list g [ c0; c1; c2 ] in
        if Assignment.total_time g a <= deadline +. 1e-9 then
          Alcotest.(check bool) "bounded" true
            (Factors.total_charge g a >= bound -. 1e-6)
      done
    done
  done

let test_continuous_monotone_in_deadline () =
  let g = cube_graph () in
  let b d = Continuous.lower_bound_charge g ~deadline:d in
  Alcotest.(check bool) "looser is cheaper" true
    (b 8.0 > b 12.0 && b 12.0 > b 20.0)

let test_continuous_scalings_in_range () =
  let g = cube_graph () in
  let sol = Continuous.relax g ~deadline:15.0 in
  Array.iter
    (fun u -> Alcotest.(check bool) "in (0,1]" true (u > 0.0 && u <= 1.0 +. 1e-12))
    sol.Continuous.scalings

(* --- Render --- *)

let test_render_gantt_mentions_tasks () =
  let g = diamond () in
  let s =
    Schedule.make g ~sequence:[ 0; 2; 1; 3 ]
      ~assignment:(Assignment.all_fastest g)
  in
  let out = Render.gantt g s in
  List.iter
    (fun needle ->
      let found =
        let nl = String.length needle and hl = String.length out in
        let rec go i =
          i + nl <= hl && (String.sub out i nl = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) ("contains " ^ needle) true found)
    [ "T1"; "T2"; "T3"; "T4"; "#"; "P1" ]

let test_render_gantt_row_count () =
  let g = diamond () in
  let s =
    Schedule.make g ~sequence:[ 0; 1; 2; 3 ]
      ~assignment:(Assignment.all_fastest g)
  in
  let lines = String.split_on_char '\n' (Render.gantt g s) in
  (* header + 4 tasks + axis + trailing empty *)
  Alcotest.(check int) "lines" 7 (List.length lines)

let test_render_profile_chart_dimensions () =
  let p = Batsched_battery.Profile.sequential [ (500.0, 5.0); (100.0, 5.0) ] in
  let out = Render.profile_chart ~width:40 ~height:6 p in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' out)
  in
  (* 6 chart rows + axis + time labels *)
  Alcotest.(check int) "rows" 8 (List.length lines)

let test_render_profile_chart_empty () =
  Alcotest.(check string) "empty note" "(empty profile)\n"
    (Render.profile_chart (Batsched_battery.Profile.of_intervals []))

let test_render_validation () =
  let g = diamond () in
  let s =
    Schedule.make g ~sequence:[ 0; 1; 2; 3 ]
      ~assignment:(Assignment.all_fastest g)
  in
  Alcotest.check_raises "narrow" (Invalid_argument "Render: width < 10")
    (fun () -> ignore (Render.gantt ~width:3 g s))

(* --- edge cases --- *)

let test_schedule_single_task () =
  let t = Task.of_pairs ~id:0 ~name:"only" [ (100.0, 2.0) ] in
  let g = Graph.make ~edges:[] [ t ] in
  let s = Schedule.make g ~sequence:[ 0 ] ~assignment:(Assignment.all_fastest g) in
  check_float "finish" 2.0 (Schedule.finish_time g s);
  Alcotest.(check int) "one interval" 1
    (List.length (Batsched_battery.Profile.intervals (Schedule.to_profile g s)))

let test_cif_flat_currents () =
  (* equal adjacent currents are not "increases" *)
  let t id = Task.of_pairs ~id ~name:(Printf.sprintf "T%d" id) [ (100.0, 1.0) ] in
  let g = Graph.make ~edges:[] [ t 0; t 1; t 2 ] in
  check_float "flat" 0.0
    (Factors.current_increase_fraction g (Assignment.all_fastest g) [ 0; 1; 2 ])

let test_current_ratio_degenerate_graph () =
  (* all design points share one current: CR collapses to 0 *)
  let t id = Task.of_pairs ~id ~name:"T" [ (100.0, 1.0); (100.0, 2.0) ] in
  let g = Graph.make ~edges:[] [ t 0 ] in
  check_float "degenerate" 0.0 (Factors.current_ratio g 100.0)

let test_continuous_single_task () =
  let t = Task.of_pairs ~id:0 ~name:"only" [ (800.0, 2.0) ] in
  let g = Graph.make ~edges:[] [ t ] in
  let sol = Continuous.relax g ~deadline:8.0 in
  (* one task: u = D/d exactly, charge = I D (D/d)^2 *)
  check_close 1e-6 "scaling" 0.25 sol.Continuous.scalings.(0);
  check_close 1e-6 "charge" (800.0 *. 2.0 *. 0.0625) sol.Continuous.charge

(* --- Schedule.unsafe_make and Eval --- *)

let check_rel name want got =
  let ok = Float.abs (got -. want) <= 1e-9 *. (1.0 +. Float.abs want) in
  if not ok then
    Alcotest.failf "%s: got %.17g, want %.17g" name got want

let check_eval_against_oracle g ev =
  let sched = Eval.to_schedule ev in
  check_rel "sigma"
    (Schedule.battery_cost ~model g sched)
    (Eval.sigma ev);
  check_rel "finish" (Schedule.finish_time g sched) (Eval.finish ev)

let test_unsafe_make () =
  let g = diamond () in
  let assignment = Assignment.all_fastest g in
  (* same result as the checked constructor on a valid order *)
  let s = Schedule.unsafe_make g ~sequence:[ 0; 2; 1; 3 ] ~assignment in
  Alcotest.(check (list int)) "sequence kept" [ 0; 2; 1; 3 ] s.Schedule.sequence;
  (* the contract: only the length is validated — a non-topological
     order is the caller's bug, not detected here *)
  ignore (Schedule.unsafe_make g ~sequence:[ 3; 0; 1; 2 ] ~assignment);
  Alcotest.check_raises "length still checked"
    (Invalid_argument "Schedule.unsafe_make: sequence length mismatch")
    (fun () -> ignore (Schedule.unsafe_make g ~sequence:[ 0; 1 ] ~assignment))

let test_eval_matches_oracle_at_load () =
  let g = diamond () in
  let sched =
    Schedule.make g ~sequence:[ 0; 1; 2; 3 ]
      ~assignment:(Assignment.of_list g [ 1; 0; 2; 1 ])
  in
  let ev = Eval.make ~model g sched in
  check_rel "sigma" (Schedule.battery_cost ~model g sched) (Eval.sigma ev);
  check_rel "finish" (Schedule.finish_time g sched) (Eval.finish ev);
  Alcotest.(check (list int)) "sequence" [ 0; 1; 2; 3 ] (Eval.sequence ev);
  Alcotest.(check int) "column" 2 (Eval.column ev 2)


let test_eval_swap_allowed () =
  let g = diamond () in
  let sched =
    Schedule.make g ~sequence:[ 0; 1; 2; 3 ]
      ~assignment:(Assignment.all_fastest g)
  in
  let ev = Eval.make ~model g sched in
  (* 0 -> 1 is an edge; 1 and 2 are incomparable; 2 -> 3 is an edge *)
  Alcotest.(check bool) "edge blocks" false (Eval.swap_allowed ev 0);
  Alcotest.(check bool) "incomparable swaps" true (Eval.swap_allowed ev 1);
  Alcotest.(check bool) "edge blocks tail" false (Eval.swap_allowed ev 2);
  Alcotest.check_raises "forbidden swap raises"
    (Invalid_argument "Eval.try_swap: swap violates a precedence edge")
    (fun () -> ignore (Eval.try_swap ev 0))

let test_eval_moves_match_oracle () =
  let g = diamond () in
  let sched =
    Schedule.make g ~sequence:[ 0; 1; 2; 3 ]
      ~assignment:(Assignment.of_list g [ 0; 1; 0; 2 ])
  in
  let ev = Eval.make ~model g sched in
  (* swap candidate = oracle of the swapped schedule *)
  let swapped =
    Schedule.make g ~sequence:[ 0; 2; 1; 3 ]
      ~assignment:(Assignment.of_list g [ 0; 1; 0; 2 ])
  in
  let got_sigma, got_finish = Eval.try_swap ev 1 in
  check_rel "swap sigma" (Schedule.battery_cost ~model g swapped) got_sigma;
  check_rel "swap finish" (Schedule.finish_time g swapped) got_finish;
  Eval.discard ev;
  check_eval_against_oracle g ev;
  (* repoint candidate likewise; the finish moves with the duration *)
  let repointed =
    Schedule.make g ~sequence:[ 0; 1; 2; 3 ]
      ~assignment:(Assignment.of_list g [ 0; 2; 0; 2 ])
  in
  let got_sigma, got_finish = Eval.try_repoint ev ~task:1 ~col:2 in
  check_rel "repoint sigma"
    (Schedule.battery_cost ~model g repointed)
    got_sigma;
  check_rel "repoint finish" (Schedule.finish_time g repointed) got_finish;
  Eval.commit ev;
  Alcotest.(check int) "column updated" 2 (Eval.column ev 1);
  check_eval_against_oracle g ev;
  (* and a swap after the repoint, committed *)
  ignore (Eval.try_swap ev 1);
  Eval.commit ev;
  Alcotest.(check (list int)) "sequence updated" [ 0; 2; 1; 3 ]
    (Eval.sequence ev);
  check_eval_against_oracle g ev

let test_eval_pending_protocol () =
  let g = diamond () in
  let sched =
    Schedule.make g ~sequence:[ 0; 1; 2; 3 ]
      ~assignment:(Assignment.all_fastest g)
  in
  let ev = Eval.make ~model g sched in
  ignore (Eval.try_swap ev 1);
  Alcotest.check_raises "try while pending"
    (Invalid_argument "Eval.try_repoint: uncommitted pending move")
    (fun () -> ignore (Eval.try_repoint ev ~task:0 ~col:1));
  Alcotest.check_raises "to_schedule while pending"
    (Invalid_argument "Eval.to_schedule: uncommitted pending move")
    (fun () -> ignore (Eval.to_schedule ev));
  Eval.commit ev;
  Alcotest.check_raises "commit w/o move"
    (Invalid_argument "Eval.commit: no pending move") (fun () ->
      Eval.commit ev)

let test_eval_load_reuses_evaluator () =
  let g = diamond () in
  let a = Assignment.all_fastest g in
  let s1 = Schedule.make g ~sequence:[ 0; 1; 2; 3 ] ~assignment:a in
  let s2 =
    Schedule.make g ~sequence:[ 0; 2; 1; 3 ]
      ~assignment:(Assignment.all_lowest_power g)
  in
  let ev = Eval.make ~model g s1 in
  ignore (Eval.try_swap ev 1);
  (* load drops the pending move and re-seats *)
  Eval.load ev s2;
  check_rel "sigma after load" (Schedule.battery_cost ~model g s2)
    (Eval.sigma ev);
  check_eval_against_oracle g ev

(* The diffusion PDE has no per-interval terms to re-cost: the
   evaluator every local search builds (annealing, random search,
   polish) refuses it by name. *)
let test_eval_rejects_stepper () =
  let g = diamond () in
  let sched =
    Schedule.make g ~sequence:[ 0; 1; 2; 3 ]
      ~assignment:(Assignment.all_fastest g)
  in
  let pde =
    Batsched_battery.Diffusion.model
      ~params:
        (Batsched_battery.Diffusion.make_params ~nodes:8 ~dt:1.0
           ~alpha:40375.0 ~beta:0.273 ())
      ()
  in
  Alcotest.check_raises "pde"
    (Invalid_argument
       "Delta.create: diffusion-pde is a stepper model, with no \
        per-interval terms")
    (fun () -> ignore (Eval.make ~model:pde g sched))

(* --- qcheck properties --- *)

let gen_graph =
  QCheck.(map
            (fun seed ->
              let rng = Batsched_numeric.Rng.create seed in
              let spec = { Generators.default_spec with Generators.num_points = 4 } in
              Generators.fork_join ~rng ~spec ~widths:[ 2; 3 ])
            (int_bound 10_000))

let gen_assignment g seed =
  let rng = Batsched_numeric.Rng.create seed in
  Assignment.of_list g
    (List.init (Graph.num_tasks g) (fun _ ->
         Batsched_numeric.Rng.int rng (Graph.num_points g)))

let prop_metrics_in_unit_interval =
  QCheck.Test.make ~count:100 ~name:"ENR and CIF stay in [0,1]"
    QCheck.(pair gen_graph (int_bound 1000))
    (fun (g, seed) ->
      let a = gen_assignment g seed in
      let seq = Analysis.any_topological_order g in
      let enr = Factors.energy_ratio g a in
      let cif = Factors.current_increase_fraction g a seq in
      enr >= -1e-9 && enr <= 1.0 +. 1e-9 && cif >= 0.0 && cif <= 1.0)

let prop_dpf_in_unit_interval =
  QCheck.Test.make ~count:100 ~name:"static DPF stays in [0,1]"
    QCheck.(triple gen_graph (int_bound 1000) (int_bound 3))
    (fun (g, seed, ws) ->
      (* free columns must lie inside the window, as in the algorithm *)
      let m = Graph.num_points g in
      let rng = Batsched_numeric.Rng.create seed in
      let a =
        Assignment.of_list g
          (List.init (Graph.num_tasks g) (fun _ ->
               ws + Batsched_numeric.Rng.int rng (m - ws)))
      in
      let free = List.init (Graph.num_tasks g / 2) Fun.id in
      let dpf = Metrics.dpf_static g a ~free ~window_start:ws in
      dpf >= -1e-9 && dpf <= 1.0 +. 1e-9)

let prop_schedule_profile_charge_consistent =
  QCheck.Test.make ~count:100
    ~name:"profile coulombs equal assignment total charge"
    QCheck.(pair gen_graph (int_bound 1000))
    (fun (g, seed) ->
      let a = gen_assignment g seed in
      let s = Schedule.make g ~sequence:(Analysis.any_topological_order g)
          ~assignment:a
      in
      Float.abs
        (Batsched_battery.Profile.total_charge (Schedule.to_profile g s)
         -. Factors.total_charge g a)
      < 1e-6)

let prop_priorities_always_topological =
  QCheck.Test.make ~count:100 ~name:"all three priorities yield linearizations"
    QCheck.(pair gen_graph (int_bound 1000))
    (fun (g, seed) ->
      let a = gen_assignment g seed in
      Analysis.is_topological g (Priorities.sequence_dec_energy g)
      && Analysis.is_topological g (Priorities.weighted_sequence g a)
      && Analysis.is_topological g (Priorities.greedy_mean_current g a))

(* The seed formulations of Eqs. 4 and 5, kept verbatim as oracles: a
   fresh descendant list and [Kahan.sum_list] per weight call. *)
let chosen_current g a v = (Assignment.chosen_point g a v).Task.current

let weighted_sequence_oracle g a =
  let weight v =
    Batsched_numeric.Kahan.sum_list
      (List.map (chosen_current g a) (Analysis.descendants g v))
  in
  Analysis.list_schedule ~weight g

let greedy_mean_current_oracle g a =
  let weight v =
    let subtree = Analysis.descendants g v in
    let mean =
      Batsched_numeric.Kahan.sum_list (List.map (chosen_current g a) subtree)
      /. float_of_int (List.length subtree)
    in
    Float.max (chosen_current g a v) mean
  in
  Analysis.list_schedule ~weight g

(* Every task's currents replaced by 100 mA steps per column, the same
   for all tasks: subgraph sums and means tie often. *)
let tie_heavy g =
  let m = Graph.num_points g in
  Graph.map_tasks
    (fun t ->
      Task.make ~id:t.Task.id ~name:t.Task.name
        (List.mapi
           (fun j p -> { p with Task.current = 100.0 *. float_of_int (m - j) })
           (Array.to_list t.Task.points)))
    g

(* Random DAGs of all five generator families plus G2 and G3, with a
   random assignment and, half the time, tie-heavy currents. *)
let gen_priority_case =
  QCheck.(map
            (fun (seed, kind, ties) ->
              let rng = Batsched_numeric.Rng.create seed in
              let spec = { Generators.default_spec with Generators.num_points = 4 } in
              let size lo hi = lo + Batsched_numeric.Rng.int rng (hi - lo + 1) in
              let g =
                match kind with
                | 0 -> Generators.chain ~rng ~spec ~n:(size 1 20)
                | 1 ->
                    Generators.fork_join ~rng ~spec
                      ~widths:(List.init (size 1 6) (fun _ -> size 1 5))
                | 2 ->
                    Generators.layered ~rng ~spec ~layers:(size 1 5)
                      ~width:(size 1 5) ~edge_prob:0.4
                | 3 -> Generators.series_parallel ~rng ~spec ~size:(size 1 30)
                | 4 ->
                    Generators.random_dag ~rng ~spec ~n:(size 1 30)
                      ~edge_prob:(Batsched_numeric.Rng.float rng 0.5)
                | 5 -> Instances.g2
                | _ -> Instances.g3
              in
              let g = if ties then tie_heavy g else g in
              (g, gen_assignment g (Batsched_numeric.Rng.int rng 1000)))
            (triple (int_bound 100_000) (int_bound 6) bool))

let prop_priorities_match_oracles =
  QCheck.Test.make ~count:300
    ~name:"Eq. 4/5 priorities equal the per-call descendant-list oracles"
    gen_priority_case (fun (g, a) ->
      Priorities.weighted_sequence g a = weighted_sequence_oracle g a
      && Priorities.greedy_mean_current g a = greedy_mean_current_oracle g a)

(* Allocation guards on a 154-task fork-join graph: both priority rules
   compute their weights once per call (O(n) words), where the seed
   rebuilt a descendant list at every list-scheduling step (~534k
   words each). *)
let test_priorities_allocation () =
  let g =
    Generators.fork_join ~rng:(Batsched_numeric.Rng.create 3)
      ~spec:Generators.default_spec
      ~widths:(List.init 31 (fun i -> 2 + (i mod 5)))
  in
  Alcotest.(check int) "tasks" 154 (Graph.num_tasks g);
  let a = Assignment.all_lowest_power g in
  List.iter
    (fun (name, rule) ->
      let words () =
        let w0 = Gc.minor_words () in
        ignore (Sys.opaque_identity (rule g a));
        Gc.minor_words () -. w0
      in
      ignore (words ());
      let w = words () in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f minor words <= 64k" name w)
        true (w <= 64_000.0))
    [ ("weighted_sequence", Priorities.weighted_sequence);
      ("greedy_mean_current", Priorities.greedy_mean_current) ]

(* Random DAGs driven through random precedence-respecting move traces:
   the incremental evaluator's committed sigma/finish track the full
   [Schedule] path throughout, and its sequence stays topological (the
   invariant that makes [unsafe_make] sound). *)
let prop_eval_traces_match_oracle =
  QCheck.Test.make ~count:500 ~name:"eval random DAG move traces match oracle"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Batsched_numeric.Rng.create seed in
      let spec = { Generators.default_spec with Generators.num_points = 4 } in
      let g =
        if Batsched_numeric.Rng.bool rng then
          Generators.fork_join ~rng ~spec ~widths:[ 2; 3 ]
        else
          Generators.random_dag ~rng ~spec
            ~n:(1 + Batsched_numeric.Rng.int rng 12)
            ~edge_prob:0.3
      in
      let n = Graph.num_tasks g and m = Graph.num_points g in
      let sequence = Analysis.any_topological_order g in
      let assignment = gen_assignment g (Batsched_numeric.Rng.int rng 1000) in
      let ev = Eval.make ~model g (Schedule.make g ~sequence ~assignment) in
      for _ = 1 to 30 do
        let commit_it = Batsched_numeric.Rng.int rng 4 > 0 in
        if n >= 2 && Batsched_numeric.Rng.bool rng then begin
          let k = Batsched_numeric.Rng.int rng (n - 1) in
          if Eval.swap_allowed ev k then begin
            ignore (Eval.try_swap ev k);
            if commit_it then Eval.commit ev else Eval.discard ev
          end
        end
        else begin
          let i = Batsched_numeric.Rng.int rng n in
          let j = Batsched_numeric.Rng.int rng m in
          ignore (Eval.try_repoint ev ~task:i ~col:j);
          if commit_it then Eval.commit ev else Eval.discard ev
        end
      done;
      let sched = Eval.to_schedule ev in
      Analysis.is_topological g sched.Schedule.sequence
      && Float.abs (Eval.sigma ev -. Schedule.battery_cost ~model g sched)
         <= 1e-9 *. (1.0 +. Float.abs (Eval.sigma ev))
      && Float.abs (Eval.finish ev -. Schedule.finish_time g sched)
         <= 1e-9 *. (1.0 +. Float.abs (Eval.finish ev)))

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_metrics_in_unit_interval;
      prop_dpf_in_unit_interval;
      prop_schedule_profile_charge_consistent;
      prop_priorities_always_topological;
      prop_priorities_match_oracles;
      prop_eval_traces_match_oracle ]

let () =
  Alcotest.run "sched"
    [ ( "assignment",
        [ Alcotest.test_case "uniform builders" `Quick test_assignment_uniform_builders;
          Alcotest.test_case "of_list and set" `Quick test_assignment_of_list_and_set;
          Alcotest.test_case "validation" `Quick test_assignment_validation;
          Alcotest.test_case "totals" `Quick test_assignment_totals;
          Alcotest.test_case "equal" `Quick test_assignment_equal;
          Alcotest.test_case "paper rendering" `Quick test_assignment_paper_rendering ] );
      ( "schedule",
        [ Alcotest.test_case "rejects bad sequence" `Quick test_schedule_rejects_bad_sequence;
          Alcotest.test_case "profile layout" `Quick test_schedule_profile_layout;
          Alcotest.test_case "meets deadline" `Quick test_schedule_meets_deadline;
          Alcotest.test_case "battery cost" `Quick test_schedule_battery_cost_positive;
          Alcotest.test_case "currents order" `Quick test_schedule_currents_in_sequence_order ] );
      ( "eval",
        [ Alcotest.test_case "unsafe_make" `Quick test_unsafe_make;
          Alcotest.test_case "matches oracle at load" `Quick test_eval_matches_oracle_at_load;
          Alcotest.test_case "swap_allowed" `Quick test_eval_swap_allowed;
          Alcotest.test_case "moves match oracle" `Quick test_eval_moves_match_oracle;
          Alcotest.test_case "pending protocol" `Quick test_eval_pending_protocol;
          Alcotest.test_case "load reuses evaluator" `Quick test_eval_load_reuses_evaluator;
          Alcotest.test_case "rejects a stepper model" `Quick test_eval_rejects_stepper ] );
      ( "priorities",
        [ Alcotest.test_case "dec energy" `Quick test_sequence_dec_energy_orders_by_avg_energy;
          Alcotest.test_case "weighted uses chosen currents" `Quick test_weighted_sequence_uses_chosen_currents;
          Alcotest.test_case "greedy valid" `Quick test_greedy_mean_current_valid;
          Alcotest.test_case "allocation guard" `Quick test_priorities_allocation ] );
      ( "metrics",
        [ Alcotest.test_case "slack ratio" `Quick test_slack_ratio;
          Alcotest.test_case "current ratio" `Quick test_current_ratio_bounds;
          Alcotest.test_case "energy ratio" `Quick test_energy_ratio_bounds;
          Alcotest.test_case "cif counts" `Quick test_cif_counts_increases;
          Alcotest.test_case "cif extremes" `Quick test_cif_extremes;
          Alcotest.test_case "dpf paper example" `Quick test_dpf_static_paper_example;
          Alcotest.test_case "dpf extremes" `Quick test_dpf_static_extremes;
          Alcotest.test_case "dpf window relative" `Quick test_dpf_static_window_relative;
          Alcotest.test_case "suitability" `Quick test_suitability_sum ] );
      ( "continuous",
        [ Alcotest.test_case "infeasible" `Quick test_continuous_infeasible;
          Alcotest.test_case "exhausts deadline" `Quick test_continuous_exhausts_deadline;
          Alcotest.test_case "kkt stationarity" `Quick test_continuous_kkt_stationarity;
          Alcotest.test_case "bounds discrete choices" `Quick test_continuous_bounds_discrete_choices;
          Alcotest.test_case "monotone in deadline" `Quick test_continuous_monotone_in_deadline;
          Alcotest.test_case "scalings in range" `Quick test_continuous_scalings_in_range ] );
      ( "edge-cases",
        [ Alcotest.test_case "single task schedule" `Quick test_schedule_single_task;
          Alcotest.test_case "flat currents cif" `Quick test_cif_flat_currents;
          Alcotest.test_case "degenerate current ratio" `Quick test_current_ratio_degenerate_graph;
          Alcotest.test_case "continuous single task" `Quick test_continuous_single_task ] );
      ( "render",
        [ Alcotest.test_case "gantt mentions tasks" `Quick test_render_gantt_mentions_tasks;
          Alcotest.test_case "gantt row count" `Quick test_render_gantt_row_count;
          Alcotest.test_case "chart dimensions" `Quick test_render_profile_chart_dimensions;
          Alcotest.test_case "chart empty" `Quick test_render_profile_chart_empty;
          Alcotest.test_case "validation" `Quick test_render_validation ] );
      ("properties", qcheck_tests) ]
