(* Tests for the baseline schedulers: the energy-DP baseline [1], the
   Chowdhury heuristic [7], simulated annealing, random search and the
   exhaustive reference, plus cross-algorithm properties. *)

open Batsched_taskgraph
open Batsched_sched
open Batsched_baselines
module Factors = Batsched_oracles.Factors

let check_float = Alcotest.(check (float 1e-9))

let model = Batsched_battery.Rakhmatov.model ()

let diamond () =
  let t id pairs = Task.of_pairs ~id ~name:(Printf.sprintf "T%d" (id + 1)) pairs in
  Graph.make ~label:"diamond" ~edges:[ (0, 1); (0, 2); (1, 3); (2, 3) ]
    [ t 0 [ (400.0, 1.0); (200.0, 2.0); (50.0, 4.0) ];
      t 1 [ (600.0, 2.0); (300.0, 4.0); (80.0, 8.0) ];
      t 2 [ (500.0, 1.0); (250.0, 2.0); (60.0, 4.0) ];
      t 3 [ (450.0, 3.0); (220.0, 6.0); (70.0, 12.0) ] ]

let feasible g (sol : Solution.t) ~deadline =
  Analysis.is_topological g sol.Solution.schedule.Schedule.sequence
  && sol.Solution.finish <= deadline +. 1e-9

(* --- Dp_energy --- *)

let test_dp_loose_deadline_minimal_energy () =
  let g = diamond () in
  let a = Dp_energy.select_design_points g ~deadline:1000.0 in
  (* unconstrained: the all-lowest-power assignment is energy minimal *)
  for i = 0 to 3 do
    Alcotest.(check int) "lowest" 2 (Assignment.column a i)
  done

let test_dp_tight_deadline_all_fastest () =
  let g = diamond () in
  let a = Dp_energy.select_design_points g ~deadline:7.0 in
  for i = 0 to 3 do
    Alcotest.(check int) "fastest" 0 (Assignment.column a i)
  done

let test_dp_meets_deadline_at_all_slacks () =
  let g = diamond () in
  List.iter
    (fun d ->
      let a = Dp_energy.select_design_points g ~deadline:d in
      Alcotest.(check bool)
        (Printf.sprintf "feasible at %.1f" d)
        true
        (Assignment.total_time g a <= d +. 1e-9))
    [ 7.0; 9.0; 12.0; 15.0; 20.0; 28.0 ]

let test_dp_energy_optimality_against_bruteforce () =
  (* the DP must match brute-force minimal energy subject to deadline *)
  let g = diamond () in
  let m = Graph.num_points g in
  let best_energy d =
    let best = ref Float.infinity in
    for c0 = 0 to m - 1 do
      for c1 = 0 to m - 1 do
        for c2 = 0 to m - 1 do
          for c3 = 0 to m - 1 do
            let a = Assignment.of_list g [ c0; c1; c2; c3 ] in
            if Assignment.total_time g a <= d +. 1e-9 then
              best := Float.min !best (Factors.total_energy g a)
          done
        done
      done
    done;
    !best
  in
  List.iter
    (fun d ->
      let a = Dp_energy.select_design_points g ~deadline:d in
      check_float
        (Printf.sprintf "optimal at %.1f" d)
        (best_energy d)
        (Factors.total_energy g a))
    [ 7.0; 10.0; 14.0; 21.0; 28.0 ]

let test_dp_infeasible_raises () =
  let g = diamond () in
  Alcotest.check_raises "infeasible" Dp_energy.Infeasible (fun () ->
      ignore (Dp_energy.select_design_points g ~deadline:5.0))

let test_dp_run_full_baseline () =
  let g = Instances.g2 in
  let sol = Dp_energy.run ~model g ~deadline:75.0 in
  Alcotest.(check bool) "feasible" true (feasible g sol ~deadline:75.0);
  Alcotest.(check bool) "sigma positive" true (sol.Solution.sigma > 0.0)

(* --- Chowdhury --- *)

let test_chowdhury_loose_deadline_all_lowest () =
  let g = diamond () in
  let sol = Chowdhury.run ~model g ~deadline:1000.0 in
  List.iter
    (fun i ->
      Alcotest.(check int) "lowest" 2
        (Assignment.column sol.Solution.schedule.Schedule.assignment i))
    [ 0; 1; 2; 3 ]

let test_chowdhury_tight_deadline_all_fastest () =
  let g = diamond () in
  let sol = Chowdhury.run ~model g ~deadline:7.0 in
  List.iter
    (fun i ->
      Alcotest.(check int) "fastest" 0
        (Assignment.column sol.Solution.schedule.Schedule.assignment i))
    [ 0; 1; 2; 3 ]

let test_chowdhury_downscales_late_tasks_first () =
  (* one notch of slack: the LAST task in the sequence gets it *)
  let g = diamond () in
  let seq = Priorities.sequence_dec_energy g in
  let last = List.nth seq 3 in
  (* slack: exactly enough to move the last task one column *)
  let fast_total = 7.0 in
  let slack =
    (Task.point (Graph.task g last) 1).Task.duration
    -. (Task.point (Graph.task g last) 0).Task.duration
  in
  let sol = Chowdhury.run ~model g ~deadline:(fast_total +. slack) in
  Alcotest.(check int) "last task downscaled" 1
    (Assignment.column sol.Solution.schedule.Schedule.assignment last);
  List.iter
    (fun i ->
      if i <> last then
        Alcotest.(check int) "others untouched" 0
          (Assignment.column sol.Solution.schedule.Schedule.assignment i))
    [ 0; 1; 2; 3 ]

let test_chowdhury_infeasible_raises () =
  let g = diamond () in
  Alcotest.check_raises "infeasible" Chowdhury.Infeasible (fun () ->
      ignore (Chowdhury.run ~model g ~deadline:5.0))

let test_chowdhury_custom_sequence () =
  let g = diamond () in
  let sol = Chowdhury.run ~sequence:[ 0; 2; 1; 3 ] ~model g ~deadline:20.0 in
  Alcotest.(check (list int)) "sequence kept" [ 0; 2; 1; 3 ]
    sol.Solution.schedule.Schedule.sequence

(* --- Annealing --- *)

let test_annealing_feasible_and_not_worse_than_start () =
  let g = diamond () in
  let deadline = 20.0 in
  let rng = Batsched_numeric.Rng.create 99 in
  let sa = Annealing.run ~rng ~model g ~deadline in
  let start = Chowdhury.run ~model g ~deadline in
  Alcotest.(check bool) "feasible" true (feasible g sa ~deadline);
  Alcotest.(check bool) "no worse than start" true
    (sa.Solution.sigma <= start.Solution.sigma +. 1e-6)

let test_annealing_deterministic_given_seed () =
  let g = diamond () in
  let run () =
    Annealing.run ~rng:(Batsched_numeric.Rng.create 7) ~model g ~deadline:20.0
  in
  check_float "same sigma" (run ()).Solution.sigma (run ()).Solution.sigma

let test_annealing_param_validation () =
  let g = diamond () in
  Alcotest.check_raises "bad cooling" (Invalid_argument "Annealing: bad cooling")
    (fun () ->
      ignore
        (Annealing.run
           ~params:{ Annealing.default_params with Annealing.cooling = 1.5 }
           ~rng:(Batsched_numeric.Rng.create 1) ~model g ~deadline:20.0))

let test_annealing_infeasible_raises () =
  let g = diamond () in
  Alcotest.check_raises "infeasible" Annealing.No_feasible_state (fun () ->
      ignore
        (Annealing.run ~rng:(Batsched_numeric.Rng.create 1) ~model g
           ~deadline:5.0))

(* --- Annealing / random search: delta vs reference evaluation ---

   The shipped searchers and their full-evaluation oracles share the
   move-draw control flow, so a fixed seed drives the identical walk;
   the solutions must agree exactly (both are re-materialized through
   the full model, so equal schedules give bit-equal sigmas). *)

module Probe = Batsched_numeric.Probe
module Oracles = Batsched_oracles

let solutions_agree name (a : Solution.t) (b : Solution.t) =
  Alcotest.(check (list int))
    (name ^ ": sequence")
    a.Solution.schedule.Schedule.sequence
    b.Solution.schedule.Schedule.sequence;
  Alcotest.(check (list int))
    (name ^ ": assignment")
    (Assignment.to_list a.Solution.schedule.Schedule.assignment)
    (Assignment.to_list b.Solution.schedule.Schedule.assignment);
  check_float (name ^ ": sigma") a.Solution.sigma b.Solution.sigma

let test_annealing_delta_matches_reference () =
  let check name g ~deadline seed =
    let rng () = Batsched_numeric.Rng.create seed in
    solutions_agree
      (Printf.sprintf "%s seed %d" name seed)
      (Annealing.run ~rng:(rng ()) ~model g ~deadline)
      (Oracles.Annealing.run ~rng:(rng ()) ~model g ~deadline)
  in
  let g = diamond () in
  List.iter (fun seed -> check "diamond" g ~deadline:20.0 seed) [ 7; 99; 2024 ];
  check "g2" Instances.g2 ~deadline:(List.hd Instances.g2_deadlines) 5;
  let rng = Batsched_numeric.Rng.create 31 in
  let fj =
    Generators.fork_join ~rng ~spec:Generators.default_spec ~widths:[ 4; 3 ]
  in
  check "fork-join" fj ~deadline:(Generators.feasible_deadline fj ~slack:0.5) 13

let test_annealing_noop_skip () =
  (* a single design point per task makes every repoint draw a no-op:
     the walk must still replay (delta = reference under the same
     seed) and the skipped evaluations must show up in the probe *)
  let t id pairs =
    Task.of_pairs ~id ~name:(Printf.sprintf "T%d" (id + 1)) pairs
  in
  let g =
    Graph.make ~label:"mono" ~edges:[ (0, 1) ]
      [ t 0 [ (400.0, 1.0) ];
        t 1 [ (600.0, 2.0) ];
        t 2 [ (500.0, 1.5) ] ]
  in
  let c0 = (Probe.totals ()).Probe.anneal_noops in
  let rng () = Batsched_numeric.Rng.create 7 in
  solutions_agree "mono"
    (Annealing.run ~rng:(rng ()) ~model g ~deadline:10.0)
    (Oracles.Annealing.run ~rng:(rng ()) ~model g ~deadline:10.0);
  Alcotest.(check bool) "noop repoints skipped and counted" true
    ((Probe.totals ()).Probe.anneal_noops - c0 > 0)

let test_annealing_delta_matches_reference_kibam () =
  (* the same exact-replay contract under KiBaM's closed-form
     incremental decomposition: the walk must retrace the
     full-evaluation walk move for move *)
  let model = Batsched_battery.Kibam.model () in
  let rng = Batsched_numeric.Rng.create 31 in
  let fj =
    Generators.fork_join ~rng ~spec:Generators.default_spec ~widths:[ 4; 3 ]
  in
  let fj_deadline = Generators.feasible_deadline fj ~slack:0.5 in
  let check name g ~deadline seed =
    let rng () = Batsched_numeric.Rng.create seed in
    solutions_agree
      (Printf.sprintf "kibam %s seed %d" name seed)
      (Annealing.run ~rng:(rng ()) ~model g ~deadline)
      (Oracles.Annealing.run ~rng:(rng ()) ~model g ~deadline)
  in
  let g = diamond () in
  List.iter (fun seed -> check "diamond" g ~deadline:20.0 seed) [ 7; 99; 2024 ];
  check "fork-join" fj ~deadline:fj_deadline 13

let test_random_search_delta_matches_reference () =
  let check name ~samples ~seed g ~deadline =
    let rng () = Batsched_numeric.Rng.create seed in
    solutions_agree name
      (Random_search.run ~samples ~rng:(rng ()) ~model g ~deadline)
      (Oracles.Random_search.run ~samples ~rng:(rng ()) ~model g ~deadline)
  in
  check "diamond" ~samples:100 ~seed:5 (diamond ()) ~deadline:20.0;
  check "g2" ~samples:60 ~seed:8 Instances.g2
    ~deadline:(List.hd Instances.g2_deadlines)

(* --- Exhaustive --- *)

let test_exhaustive_beats_or_ties_everything () =
  let g = diamond () in
  let deadline = 14.0 in
  let opt = Exhaustive.run ~model g ~deadline in
  Alcotest.(check bool) "feasible" true (feasible g opt ~deadline);
  let others =
    [ (Dp_energy.run ~model g ~deadline).Solution.sigma;
      (Chowdhury.run ~model g ~deadline).Solution.sigma;
      (Annealing.run ~rng:(Batsched_numeric.Rng.create 3) ~model g ~deadline)
        .Solution.sigma;
      (let cfg = Batsched.Config.make ~deadline () in
       (Batsched.Iterate.run cfg g).Batsched.Iterate.sigma) ]
  in
  List.iter
    (fun s ->
      Alcotest.(check bool) "optimum <= heuristic" true
        (opt.Solution.sigma <= s +. 1e-6))
    others

let test_exhaustive_too_large_guard () =
  (* 5^12 ~ 2.4e8 assignments, past the 200_000 budget *)
  let rng = Batsched_numeric.Rng.create 1 in
  let g =
    Generators.random_dag ~rng
      ~spec:{ Generators.default_spec with Generators.num_points = 5 } ~n:12
      ~edge_prob:0.2
  in
  Alcotest.check_raises "guard" Exhaustive.Too_large (fun () ->
      ignore (Exhaustive.run ~model g ~deadline:1000.0))

let test_exhaustive_infeasible () =
  let g = diamond () in
  Alcotest.check_raises "infeasible" Exhaustive.Infeasible (fun () ->
      ignore (Exhaustive.run ~model g ~deadline:5.0))

(* --- Branch and bound --- *)

let test_bnb_matches_exhaustive () =
  let g = diamond () in
  List.iter
    (fun deadline ->
      let opt = (Exhaustive.run ~model g ~deadline).Solution.sigma in
      let bnb = Branch_bound.run ~model g ~deadline in
      Alcotest.(check bool) "optimal flag" true bnb.Branch_bound.optimal;
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "sigma at %.1f" deadline)
        opt bnb.Branch_bound.solution.Solution.sigma)
    [ 8.0; 12.0; 18.0; 26.0 ]

let test_bnb_prunes_vs_exhaustive_nodes () =
  (* pruning must explore far fewer nodes than the full m^n tree *)
  let g = diamond () in
  let bnb = Branch_bound.run ~model g ~deadline:14.0 in
  Alcotest.(check bool) "pruned" true (bnb.Branch_bound.nodes < 2 * 81 * 3)

let test_bnb_budget_truncation () =
  let rng = Batsched_numeric.Rng.create 2 in
  let g =
    Generators.layered ~rng
      ~spec:{ Generators.default_spec with Generators.num_points = 4 }
      ~layers:3 ~width:3 ~edge_prob:0.4
  in
  let deadline = Generators.feasible_deadline g ~slack:0.5 in
  let bnb = Branch_bound.run ~node_budget:50 ~model g ~deadline in
  Alcotest.(check bool) "truncated" false bnb.Branch_bound.optimal;
  Alcotest.(check bool) "still feasible" true
    (feasible g bnb.Branch_bound.solution ~deadline)

let test_bnb_infeasible () =
  let g = diamond () in
  Alcotest.check_raises "infeasible" Branch_bound.Infeasible (fun () ->
      ignore (Branch_bound.run ~model g ~deadline:5.0))

let test_bnb_beats_or_ties_chowdhury_seed () =
  let g = Instances.g2 in
  let deadline = 75.0 in
  let bnb = Branch_bound.run ~node_budget:200_000 ~model g ~deadline in
  let seed = Chowdhury.run ~model g ~deadline in
  Alcotest.(check bool) "no worse than seed" true
    (bnb.Branch_bound.solution.Solution.sigma <= seed.Solution.sigma +. 1e-6)

(* --- Random search --- *)

let test_random_search_feasible () =
  let g = diamond () in
  let deadline = 15.0 in
  let sol =
    Random_search.run ~samples:100 ~rng:(Batsched_numeric.Rng.create 5) ~model
      g ~deadline
  in
  Alcotest.(check bool) "feasible" true (feasible g sol ~deadline)

let test_random_search_more_samples_no_worse () =
  let g = diamond () in
  let deadline = 15.0 in
  let run samples =
    (Random_search.run ~samples ~rng:(Batsched_numeric.Rng.create 5) ~model g
       ~deadline)
      .Solution.sigma
  in
  Alcotest.(check bool) "improves" true (run 400 <= run 20 +. 1e-9)

let test_random_sequence_topological () =
  let g = Instances.g3 in
  let rng = Batsched_numeric.Rng.create 17 in
  for _ = 1 to 50 do
    Alcotest.(check bool) "topological" true
      (Analysis.is_topological g (Random_search.random_sequence ~rng g))
  done

(* --- cross-algorithm properties --- *)

let gen_case =
  QCheck.(map
            (fun (seed, slack10) ->
              let rng = Batsched_numeric.Rng.create seed in
              let spec = { Generators.default_spec with Generators.num_points = 3 } in
              let g = Generators.fork_join ~rng ~spec ~widths:[ 2; 2 ] in
              let slack = 0.1 +. (0.8 *. float_of_int slack10 /. 10.0) in
              (g, Generators.feasible_deadline g ~slack))
            (pair (int_bound 10_000) (int_bound 10)))

let prop_all_baselines_feasible =
  QCheck.Test.make ~count:40 ~name:"every baseline returns a feasible schedule"
    gen_case (fun (g, deadline) ->
      let rng = Batsched_numeric.Rng.create 123 in
      let sols =
        [ Dp_energy.run ~model g ~deadline;
          Chowdhury.run ~model g ~deadline;
          Random_search.run ~samples:50 ~rng ~model g ~deadline ]
      in
      List.for_all (fun s -> feasible g s ~deadline) sols)

let prop_bnb_equals_exhaustive =
  QCheck.Test.make ~count:10 ~name:"branch-and-bound matches exhaustive"
    gen_case (fun (g, deadline) ->
      let opt = (Exhaustive.run ~model g ~deadline).Solution.sigma in
      let bnb = Branch_bound.run ~model g ~deadline in
      bnb.Branch_bound.optimal
      && Float.abs (bnb.Branch_bound.solution.Solution.sigma -. opt) < 1e-6)

let prop_exhaustive_lower_bounds_heuristics =
  QCheck.Test.make ~count:15
    ~name:"exhaustive optimum lower-bounds the iterative heuristic" gen_case
    (fun (g, deadline) ->
      let opt = (Exhaustive.run ~model g ~deadline).Solution.sigma in
      let cfg = Batsched.Config.make ~deadline () in
      let ours = (Batsched.Iterate.run cfg g).Batsched.Iterate.sigma in
      opt <= ours +. 1e-6)

let prop_dp_energy_never_above_all_fastest_energy =
  QCheck.Test.make ~count:40
    ~name:"DP energy selection never exceeds the all-fastest energy" gen_case
    (fun (g, deadline) ->
      let a = Dp_energy.select_design_points g ~deadline in
      Factors.total_energy g a
      <= Factors.total_energy g (Assignment.all_fastest g) +. 1e-6)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_all_baselines_feasible;
      prop_bnb_equals_exhaustive;
      prop_exhaustive_lower_bounds_heuristics;
      prop_dp_energy_never_above_all_fastest_energy ]

let () =
  Alcotest.run "baselines"
    [ ( "dp_energy",
        [ Alcotest.test_case "loose deadline minimal" `Quick test_dp_loose_deadline_minimal_energy;
          Alcotest.test_case "tight deadline fastest" `Quick test_dp_tight_deadline_all_fastest;
          Alcotest.test_case "meets deadline" `Quick test_dp_meets_deadline_at_all_slacks;
          Alcotest.test_case "optimal vs bruteforce" `Quick test_dp_energy_optimality_against_bruteforce;
          Alcotest.test_case "infeasible raises" `Quick test_dp_infeasible_raises;
          Alcotest.test_case "full baseline" `Quick test_dp_run_full_baseline ] );
      ( "chowdhury",
        [ Alcotest.test_case "loose deadline all lowest" `Quick test_chowdhury_loose_deadline_all_lowest;
          Alcotest.test_case "tight deadline all fastest" `Quick test_chowdhury_tight_deadline_all_fastest;
          Alcotest.test_case "downscales late first" `Quick test_chowdhury_downscales_late_tasks_first;
          Alcotest.test_case "infeasible raises" `Quick test_chowdhury_infeasible_raises;
          Alcotest.test_case "custom sequence" `Quick test_chowdhury_custom_sequence ] );
      ( "annealing",
        [ Alcotest.test_case "feasible, beats start" `Quick test_annealing_feasible_and_not_worse_than_start;
          Alcotest.test_case "deterministic" `Quick test_annealing_deterministic_given_seed;
          Alcotest.test_case "param validation" `Quick test_annealing_param_validation;
          Alcotest.test_case "infeasible raises" `Quick test_annealing_infeasible_raises;
          Alcotest.test_case "delta matches reference" `Quick test_annealing_delta_matches_reference;
          Alcotest.test_case "delta matches reference (kibam)" `Quick test_annealing_delta_matches_reference_kibam;
          Alcotest.test_case "noop repoints skipped" `Quick test_annealing_noop_skip ] );
      ( "exhaustive",
        [ Alcotest.test_case "lower bound" `Quick test_exhaustive_beats_or_ties_everything;
          Alcotest.test_case "too-large guard" `Quick test_exhaustive_too_large_guard;
          Alcotest.test_case "infeasible" `Quick test_exhaustive_infeasible ] );
      ( "branch_bound",
        [ Alcotest.test_case "matches exhaustive" `Quick test_bnb_matches_exhaustive;
          Alcotest.test_case "prunes" `Quick test_bnb_prunes_vs_exhaustive_nodes;
          Alcotest.test_case "budget truncation" `Quick test_bnb_budget_truncation;
          Alcotest.test_case "infeasible" `Quick test_bnb_infeasible;
          Alcotest.test_case "beats seed" `Quick test_bnb_beats_or_ties_chowdhury_seed ] );
      ( "random_search",
        [ Alcotest.test_case "feasible" `Quick test_random_search_feasible;
          Alcotest.test_case "more samples no worse" `Quick test_random_search_more_samples_no_worse;
          Alcotest.test_case "delta matches reference" `Quick test_random_search_delta_matches_reference;
          Alcotest.test_case "random sequences topological" `Quick test_random_sequence_topological ] );
      ("properties", qcheck_tests) ]
