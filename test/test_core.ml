(* Tests for the core algorithm: configuration, window search,
   design-point selection (incl. the paper's worked DPF example) and the
   iterative loop on the published instances. *)

open Batsched_taskgraph
open Batsched_sched

let check_float = Alcotest.(check (float 1e-9))
let check_close eps = Alcotest.(check (float eps))

let diamond () =
  let t id pairs = Task.of_pairs ~id ~name:(Printf.sprintf "T%d" (id + 1)) pairs in
  Graph.make ~label:"diamond" ~edges:[ (0, 1); (0, 2); (1, 3); (2, 3) ]
    [ t 0 [ (400.0, 1.0); (200.0, 2.0); (50.0, 4.0) ];
      t 1 [ (600.0, 2.0); (300.0, 4.0); (80.0, 8.0) ];
      t 2 [ (500.0, 1.0); (250.0, 2.0); (60.0, 4.0) ];
      t 3 [ (450.0, 3.0); (220.0, 6.0); (70.0, 12.0) ] ]

(* --- Config --- *)

let test_config_defaults () =
  let cfg = Batsched.Config.make ~deadline:10.0 () in
  Alcotest.(check string) "model" "rakhmatov" cfg.Batsched.Config.model.Batsched_battery.Model.name;
  check_float "sr weight" 1.0 cfg.Batsched.Config.weights.Batsched.Config.sr

let test_config_validation () =
  Alcotest.check_raises "deadline"
    (Invalid_argument "Config.make: deadline must be positive") (fun () ->
      ignore (Batsched.Config.make ~deadline:0.0 ()));
  Alcotest.check_raises "iterations"
    (Invalid_argument "Config.make: max_iterations < 1") (fun () ->
      ignore (Batsched.Config.make ~deadline:1.0 ~max_iterations:0 ()))

(* --- Window --- *)

let test_window_initial_start_full_slack () =
  (* deadline above all-slowest at column m-2: start = m-2 *)
  let g = diamond () in
  let cfg = Batsched.Config.make ~deadline:30.0 () in
  Alcotest.(check int) "narrowest" 1 (Batsched.Window.initial_window_start cfg g)

let test_window_initial_start_tight () =
  (* deadline only meetable with the fastest column: start = 0 *)
  let g = diamond () in
  let cfg = Batsched.Config.make ~deadline:7.5 () in
  Alcotest.(check int) "forced wide" 0 (Batsched.Window.initial_window_start cfg g)

let test_window_unmeetable_raises () =
  let g = diamond () in
  let cfg = Batsched.Config.make ~deadline:6.0 () in
  Alcotest.check_raises "unmeetable" Batsched.Config.Deadline_unmeetable
    (fun () -> ignore (Batsched.Window.initial_window_start cfg g))

let test_window_evaluate_sweeps_down_to_zero () =
  let g = diamond () in
  let cfg = Batsched.Config.make ~deadline:30.0 () in
  let seq = Analysis.any_topological_order g in
  let w = Batsched.Window.evaluate cfg g ~sequence:seq in
  let starts =
    List.map (fun (r : Batsched.Window.window_result) -> r.window_start)
      w.Batsched.Window.per_window
  in
  Alcotest.(check (list int)) "narrow to wide" [ 1; 0 ] starts

let test_window_best_is_min_sigma () =
  let g = diamond () in
  let cfg = Batsched.Config.make ~deadline:20.0 () in
  let seq = Analysis.any_topological_order g in
  let w = Batsched.Window.evaluate cfg g ~sequence:seq in
  List.iter
    (fun (r : Batsched.Window.window_result) ->
      Alcotest.(check bool) "best <= all" true
        (w.Batsched.Window.best.Batsched.Window.sigma <= r.sigma +. 1e-9))
    w.Batsched.Window.per_window

let test_window_results_meet_deadline () =
  let g = diamond () in
  let deadline = 20.0 in
  let cfg = Batsched.Config.make ~deadline () in
  let seq = Analysis.any_topological_order g in
  let w = Batsched.Window.evaluate cfg g ~sequence:seq in
  List.iter
    (fun (r : Batsched.Window.window_result) ->
      Alcotest.(check bool) "finish <= d" true (r.finish <= deadline +. 1e-9))
    w.Batsched.Window.per_window

let test_window_mask () =
  let g = diamond () in
  Alcotest.(check (list (pair int bool))) "mask"
    [ (0, false); (1, true); (2, true) ]
    (Batsched.Window.mask g ~window_start:1)

(* --- Choose --- *)

let test_choose_last_task_lowest_power () =
  let g = diamond () in
  let cfg = Batsched.Config.make ~deadline:30.0 () in
  let seq = [ 0; 1; 2; 3 ] in
  let a = Batsched.Choose.choose_design_points cfg g ~sequence:seq ~window_start:0 in
  Alcotest.(check int) "task 3 at m-1" 2 (Assignment.column a 3)

let test_choose_meets_deadline () =
  let g = diamond () in
  List.iter
    (fun deadline ->
      let cfg = Batsched.Config.make ~deadline () in
      let seq = [ 0; 2; 1; 3 ] in
      let ws = Batsched.Window.initial_window_start cfg g in
      let a = Batsched.Choose.choose_design_points cfg g ~sequence:seq ~window_start:ws in
      Alcotest.(check bool)
        (Printf.sprintf "meets %.1f" deadline)
        true
        (Assignment.total_time g a <= deadline +. 1e-9))
    [ 7.5; 10.0; 15.0; 20.0; 28.0 ]

let test_choose_loose_deadline_all_lowest () =
  (* with unlimited slack every task can sit at the lowest-power point *)
  let g = diamond () in
  let cfg = Batsched.Config.make ~deadline:1000.0 () in
  let a =
    Batsched.Choose.choose_design_points cfg g ~sequence:[ 0; 1; 2; 3 ]
      ~window_start:0
  in
  for i = 0 to 3 do
    Alcotest.(check int) "lowest power" 2 (Assignment.column a i)
  done

let test_choose_respects_window () =
  let g = diamond () in
  let cfg = Batsched.Config.make ~deadline:1000.0 () in
  let a =
    Batsched.Choose.choose_design_points cfg g ~sequence:[ 0; 1; 2; 3 ]
      ~window_start:1
  in
  for i = 0 to 3 do
    Alcotest.(check bool) "inside window" true (Assignment.column a i >= 1)
  done

let test_choose_rejects_bad_sequence () =
  let g = diamond () in
  let cfg = Batsched.Config.make ~deadline:20.0 () in
  Alcotest.check_raises "invalid"
    (Invalid_argument "Choose.choose_design_points: invalid sequence")
    (fun () ->
      ignore
        (Batsched.Choose.choose_design_points cfg g ~sequence:[ 3; 2; 1; 0 ]
           ~window_start:0))

let test_calculate_dpf_feasible_state () =
  (* tagged task at position 1; suffix fixed at lowest power; deadline
     huge -> no upgrades needed, DPF from the parked prefix (all at the
     lowest-power column -> weight 0 -> DPF 0) *)
  let g = diamond () in
  let cfg = Batsched.Config.make ~deadline:1000.0 () in
  let seq = [| 0; 1; 2; 3 |] in
  let a = Assignment.all_lowest_power g in
  let r =
    Batsched.Choose.calculate_dpf cfg g ~sequence:seq ~assignment:a
      ~tagged_pos:1 ~window_start:0
  in
  check_float "dpf" 0.0 r.Batsched.Choose.dpf;
  Alcotest.(check bool) "enr in unit" true
    (r.Batsched.Choose.enr >= 0.0 && r.Batsched.Choose.enr <= 1.0)

let test_calculate_dpf_upgrades_low_energy_first () =
  (* force upgrades: deadline below the all-lowest total (26) but above
     what one upgrade of the cheapest free task achieves *)
  let g = diamond () in
  (* energy vector: avg energies: t0 333.3, t1 1013.3, t2 413.3, t3 1170
     -> order [0;2;1;3].  Tagged pos 2 (task 2 in seq [0;1;2;3]);
     free = {0, 1}; first free in energy order is 0. *)
  let cfg = Batsched.Config.make ~deadline:24.5 () in
  let seq = [| 0; 1; 2; 3 |] in
  (* suffix: task 3 fixed at lowest (12), tagged task 2 at lowest (4),
     free 0,1 parked lowest (4 + 8) -> total 28 > 24.5; upgrading task 0
     (cheapest) to column 1 saves 2 -> 26 > 24.5; then to column 0 saves
     1 more -> 25 > 24.5; then task 0 fixed, upgrade task 1 to column 1
     saves 4 -> 21 <= 24.5. *)
  let a = Assignment.all_lowest_power g in
  let r =
    Batsched.Choose.calculate_dpf cfg g ~sequence:seq ~assignment:a
      ~tagged_pos:2 ~window_start:0
  in
  Alcotest.(check int) "task0 fully upgraded" 0
    (Assignment.column r.Batsched.Choose.hypothetical 0);
  Alcotest.(check int) "task1 one step" 1
    (Assignment.column r.Batsched.Choose.hypothetical 1);
  Alcotest.(check bool) "feasible" true (r.Batsched.Choose.dpf < Float.infinity)

let test_calculate_dpf_infeasible_is_infinite () =
  (* deadline below even the fully-upgraded prefix: dpf = infinity *)
  let g = diamond () in
  let cfg = Batsched.Config.make ~deadline:10.0 () in
  let seq = [| 0; 1; 2; 3 |] in
  (* suffix task3 at lowest (12) alone already busts 10 *)
  let a = Assignment.all_lowest_power g in
  let r =
    Batsched.Choose.calculate_dpf cfg g ~sequence:seq ~assignment:a
      ~tagged_pos:2 ~window_start:0
  in
  Alcotest.(check bool) "infinite" true (r.Batsched.Choose.dpf = Float.infinity)

let test_calculate_dpf_last_task_slack_rule () =
  (* tagged_pos = 0: DPF equals the slack ratio of the complete
     assignment *)
  let g = diamond () in
  let d = 30.0 in
  let cfg = Batsched.Config.make ~deadline:d () in
  let seq = [| 0; 1; 2; 3 |] in
  let a = Assignment.all_lowest_power g in
  let r =
    Batsched.Choose.calculate_dpf cfg g ~sequence:seq ~assignment:a
      ~tagged_pos:0 ~window_start:0
  in
  let te = Assignment.total_time g a in
  check_close 1e-9 "slack rule" ((d -. te) /. d) r.Batsched.Choose.dpf

(* Inputs outside the documented contract are rejected at the boundary
   with a named reason, on G3, instead of an out-of-bounds access or a
   silent result. *)
let dpf_boundary_cases =
  let g = Instances.g3 in
  let n = Graph.num_tasks g and m = Graph.num_points g in
  let cfg = Batsched.Config.make ~deadline:Instances.g3_deadline () in
  let seq = Array.of_list (Priorities.sequence_dec_energy g) in
  let call ?(sequence = seq) ?(assignment = Assignment.all_lowest_power g)
      ?(tagged_pos = 1) ?(window_start = 0) () =
    ignore
      (Batsched.Choose.calculate_dpf cfg g ~sequence ~assignment ~tagged_pos
         ~window_start)
  in
  let wider =
    Generators.chain ~rng:(Batsched_numeric.Rng.create 1)
      ~spec:{ Generators.default_spec with Generators.num_points = m + 1 }
      ~n
  in
  let dpf reason = "Choose.calculate_dpf: " ^ reason in
  let not_permutation = dpf "sequence is not a permutation of the task ids" in
  let not_covering = dpf "assignment does not cover the graph's tasks" in
  [ ("dpf rejects tagged_pos n", dpf "tagged_pos out of range",
     fun () -> call ~tagged_pos:n ());
    ("dpf rejects tagged_pos -1", dpf "tagged_pos out of range",
     fun () -> call ~tagged_pos:(-1) ());
    ("dpf rejects window_start -1", dpf "window_start out of range",
     fun () -> call ~window_start:(-1) ());
    ("dpf rejects window_start m", dpf "window_start out of range",
     fun () -> call ~window_start:m ());
    ("dpf rejects short sequence", not_permutation,
     fun () -> call ~sequence:[| 0; 1 |] ());
    ("dpf rejects duplicate ids", not_permutation,
     fun () -> call ~sequence:(Array.make n 0) ());
    ("dpf rejects out-of-range id", not_permutation,
     fun () ->
       call ~sequence:(Array.map (fun v -> if v = 0 then n else v) seq) ());
    ("dpf rejects short assignment", not_covering,
     fun () -> call ~assignment:(Assignment.all_lowest_power (diamond ())) ());
    ("dpf rejects foreign columns", not_covering,
     fun () -> call ~assignment:(Assignment.all_lowest_power wider) ());
    ("dpf rejects a free task off the lowest-power column",
     dpf "free task not at the lowest-power column",
     fun () ->
       call
         ~assignment:(Assignment.set (Assignment.all_lowest_power g) seq.(0) 0)
         ()) ]

let dpf_boundary_tests =
  List.map
    (fun (name, msg, f) ->
      Alcotest.test_case name `Quick (fun () ->
          Alcotest.check_raises name (Invalid_argument msg) f))
    dpf_boundary_cases

(* --- Iterate on the published instances --- *)

let test_iterate_g3_shape () =
  let g = Instances.g3 in
  let cfg = Batsched.Config.make ~deadline:Instances.g3_deadline () in
  let r = Batsched.Iterate.run cfg g in
  (* monotone min-sigma, terminates within a handful of iterations *)
  let sigmas =
    List.map (fun (it : Batsched.Iterate.iteration) -> it.min_sigma) r.iterations
  in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a >= b -. 1e-9 && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone" true (monotone sigmas);
  Alcotest.(check bool) "terminates quickly" true
    (List.length r.iterations >= 2 && List.length r.iterations <= 10);
  (* final quality: paper reports 13737 at Delta 229.8; our faithful
     reimplementation must land within 5% and meet the deadline *)
  check_close (0.05 *. 13737.0) "sigma near paper" 13737.0 r.sigma;
  Alcotest.(check bool) "meets deadline" true
    (r.finish <= Instances.g3_deadline +. 1e-9)

let test_iterate_g3_beats_first_iteration () =
  let g = Instances.g3 in
  let cfg = Batsched.Config.make ~deadline:Instances.g3_deadline () in
  let r = Batsched.Iterate.run cfg g in
  match r.iterations with
  | first :: _ :: _ ->
      Alcotest.(check bool) "improved" true (r.sigma < first.min_sigma)
  | _ -> Alcotest.fail "expected multiple iterations"

let test_iterate_g3_weighted_sequences_topological () =
  let g = Instances.g3 in
  let cfg = Batsched.Config.make ~deadline:Instances.g3_deadline () in
  let r = Batsched.Iterate.run cfg g in
  List.iter
    (fun (it : Batsched.Iterate.iteration) ->
      Alcotest.(check bool) "seq valid" true
        (Analysis.is_topological g it.sequence);
      Alcotest.(check bool) "weighted valid" true
        (Analysis.is_topological g it.weighted_sequence))
    r.iterations

let test_iterate_g3_every_iteration_usable () =
  (* the paper's selling point: each iteration yields a valid schedule
     meeting the deadline *)
  let g = Instances.g3 in
  let cfg = Batsched.Config.make ~deadline:Instances.g3_deadline () in
  let r = Batsched.Iterate.run cfg g in
  List.iter
    (fun it ->
      let s = Batsched.Iterate.schedule_of_iteration g it in
      Alcotest.(check bool) "meets deadline" true
        (Schedule.meets_deadline g s ~deadline:Instances.g3_deadline))
    r.iterations

let test_iterate_g2_all_deadlines () =
  let g = Instances.g2 in
  (* paper values: 30913 / 13751 / 7961; accept within 5% *)
  List.iter2
    (fun deadline paper ->
      let cfg = Batsched.Config.make ~deadline () in
      let r = Batsched.Iterate.run cfg g in
      check_close (0.05 *. paper)
        (Printf.sprintf "sigma at d=%.0f" deadline)
        paper r.sigma;
      Alcotest.(check bool) "meets deadline" true (r.finish <= deadline +. 1e-9))
    Instances.g2_deadlines [ 30913.0; 13751.0; 7961.0 ]

let test_iterate_sigma_decreases_with_deadline () =
  let g = Instances.g2 in
  let sigma d =
    (Batsched.Iterate.run (Batsched.Config.make ~deadline:d ()) g)
      .Batsched.Iterate.sigma
  in
  let s55 = sigma 55.0 and s75 = sigma 75.0 and s95 = sigma 95.0 in
  Alcotest.(check bool) "monotone in slack" true (s55 >= s75 && s75 >= s95)

let test_iterate_unmeetable_deadline () =
  let g = Instances.g2 in
  let cfg = Batsched.Config.make ~deadline:40.0 () in
  Alcotest.check_raises "unmeetable" Batsched.Config.Deadline_unmeetable
    (fun () -> ignore (Batsched.Iterate.run cfg g))

let test_iterate_single_task_graph () =
  let t = Task.of_pairs ~id:0 ~name:"only" [ (500.0, 2.0); (100.0, 6.0) ] in
  let g = Graph.make ~edges:[] [ t ] in
  let cfg = Batsched.Config.make ~deadline:10.0 () in
  let r = Batsched.Iterate.run cfg g in
  (* single task: fixed at the lowest-power point *)
  Alcotest.(check (list int)) "sequence" [ 0 ]
    r.Batsched.Iterate.schedule.Schedule.sequence;
  Alcotest.(check int) "lowest power" 1
    (Assignment.column r.Batsched.Iterate.schedule.Schedule.assignment 0)

let test_iterate_respects_max_iterations () =
  let g = Instances.g3 in
  let cfg =
    Batsched.Config.make ~deadline:Instances.g3_deadline ~max_iterations:1 ()
  in
  let r = Batsched.Iterate.run cfg g in
  Alcotest.(check int) "capped" 1 (List.length r.iterations)

let test_iterate_ideal_model_prefers_low_energy () =
  (* under the ideal model sigma = total charge; with a loose deadline
     the algorithm must discover the all-lowest-power assignment *)
  let g = diamond () in
  let model = Batsched_battery.Ideal.model in
  let cfg = Batsched.Config.make ~model ~deadline:1000.0 () in
  let r = Batsched.Iterate.run cfg g in
  let charge =
    Assignment.total_charge g r.Batsched.Iterate.schedule.Schedule.assignment
  in
  let minimal = Assignment.total_charge g (Assignment.all_lowest_power g) in
  check_close 1e-6 "minimal charge" minimal charge

(* --- regression pins --- *)

let test_published_points_pinned () =
  (* These pin THIS implementation's deterministic outputs (not the
     paper's — those live in test_iterate_g2_all_deadlines /
     test_iterate_g3_shape as 5% bands).  A refactor that shifts any of
     them has changed algorithmic behaviour and must update
     EXPERIMENTS.md consciously. *)
  List.iter
    (fun (g, deadline, expected) ->
      let r = Batsched.Iterate.run (Batsched.Config.make ~deadline ()) g in
      check_close 0.05
        (Printf.sprintf "%s at %.0f" (Graph.label g) deadline)
        expected r.Batsched.Iterate.sigma)
    [ (Instances.g2, 55.0, 30955.2177);
      (Instances.g2, 75.0, 13758.0765);
      (Instances.g2, 95.0, 8044.5141);
      (Instances.g3, 100.0, 57428.6781);
      (Instances.g3, 150.0, 41257.7628);
      (Instances.g3, 230.0, 14068.7027) ]

(* --- preprocessing equivalence --- *)

let test_transitive_reduction_preserves_result () =
  (* the algorithm only consumes precedence through descendants and
     ready sets, both invariant under transitive reduction, so the run
     must be bit-identical *)
  let t id pairs = Task.of_pairs ~id ~name:(Printf.sprintf "T%d" id) pairs in
  let g =
    Graph.make ~label:"redundant"
      ~edges:[ (0, 1); (1, 2); (0, 2); (2, 3); (0, 3) ]
      [ t 0 [ (400.0, 1.0); (100.0, 3.0) ];
        t 1 [ (600.0, 2.0); (150.0, 5.0) ];
        t 2 [ (500.0, 1.0); (120.0, 4.0) ];
        t 3 [ (450.0, 3.0); (110.0, 9.0) ] ]
  in
  let reduced =
    Graph.make ~label:"reduced" ~edges:[ (0, 1); (1, 2); (2, 3) ]
      (Graph.tasks g)
  in
  let cfg = Batsched.Config.make ~deadline:15.0 () in
  let a = Batsched.Iterate.run cfg g in
  let b = Batsched.Iterate.run cfg reduced in
  check_float "same sigma" a.Batsched.Iterate.sigma b.Batsched.Iterate.sigma;
  Alcotest.(check (list int)) "same sequence"
    a.Batsched.Iterate.schedule.Schedule.sequence
    b.Batsched.Iterate.schedule.Schedule.sequence

(* --- polish --- *)

let test_polish_never_worse () =
  List.iter
    (fun (g, deadline) ->
      let cfg = Batsched.Config.make ~deadline () in
      let r = Batsched.Iterate.run cfg g in
      let p = Batsched.Polish.polish cfg g r in
      Alcotest.(check bool) "no worse" true
        (p.Batsched.Iterate.sigma <= r.Batsched.Iterate.sigma +. 1e-9);
      Alcotest.(check bool) "still feasible" true
        (p.Batsched.Iterate.finish <= deadline +. 1e-9);
      Alcotest.(check bool) "still topological" true
        (Analysis.is_topological g
           p.Batsched.Iterate.schedule.Schedule.sequence))
    [ (Instances.g2, 75.0); (Instances.g3, 230.0); (diamond (), 20.0) ]

let test_polish_improves_bad_order () =
  (* feed an anti-sorted schedule (light tasks first): local search must
     strictly improve it *)
  let g = diamond () in
  let cfg = Batsched.Config.make ~deadline:30.0 () in
  let bad =
    Schedule.make g ~sequence:[ 0; 2; 1; 3 ]
      ~assignment:(Assignment.of_list g [ 2; 0; 2; 2 ])
  in
  let polished = Batsched.Polish.two_swap cfg g bad in
  Alcotest.(check bool) "strictly better or equal" true
    (Schedule.battery_cost ~model:cfg.Batsched.Config.model g polished
     <= Schedule.battery_cost ~model:cfg.Batsched.Config.model g bad +. 1e-9)

let test_polish_validation () =
  let g = diamond () in
  let cfg = Batsched.Config.make ~deadline:30.0 () in
  let r = Batsched.Iterate.run cfg g in
  Alcotest.check_raises "rounds" (Invalid_argument "Polish.two_swap: max_rounds < 1")
    (fun () ->
      ignore (Batsched.Polish.two_swap ~max_rounds:0 cfg g r.Batsched.Iterate.schedule))

(* Delta vs reference evaluation, at pool 1 and pool 4: same schedule
   out (the 1e-9 improvement margin absorbs the paths' round-off
   difference), same sigma from the full model. *)
let test_polish_delta_matches_reference () =
  List.iter
    (fun pool ->
      List.iter
        (fun (g, deadline) ->
          let cfg = Batsched.Config.make ?pool ~deadline () in
          let r = Batsched.Iterate.run cfg g in
          let a = Batsched.Polish.polish cfg g r
          and b = Batsched_oracles.Polish.polish cfg g r in
          Alcotest.(check (list int)) "sequence"
            b.Batsched.Iterate.schedule.Schedule.sequence
            a.Batsched.Iterate.schedule.Schedule.sequence;
          Alcotest.(check (list int)) "assignment"
            (Assignment.to_list b.Batsched.Iterate.schedule.Schedule.assignment)
            (Assignment.to_list a.Batsched.Iterate.schedule.Schedule.assignment);
          check_float "sigma" b.Batsched.Iterate.sigma a.Batsched.Iterate.sigma)
        [ (Instances.g2, 75.0); (Instances.g3, 230.0); (diamond (), 20.0) ])
    [ None; Some (Batsched_numeric.Pool.create 4) ]

(* --- multistart --- *)

let test_multistart_never_worse_than_single () =
  let g = Instances.g2 in
  List.iter
    (fun deadline ->
      let cfg = Batsched.Config.make ~deadline () in
      let single = (Batsched.Iterate.run cfg g).Batsched.Iterate.sigma in
      let rng = Batsched_numeric.Rng.create 7 in
      let multi =
        (Batsched.Iterate.run_multistart ~rng ~starts:6 cfg g)
          .Batsched.Iterate.sigma
      in
      Alcotest.(check bool) "no worse" true (multi <= single +. 1e-9))
    Instances.g2_deadlines

let test_multistart_one_start_equals_run () =
  let g = diamond () in
  let cfg = Batsched.Config.make ~deadline:20.0 () in
  let rng = Batsched_numeric.Rng.create 1 in
  check_float "identical"
    (Batsched.Iterate.run cfg g).Batsched.Iterate.sigma
    (Batsched.Iterate.run_multistart ~rng ~starts:1 cfg g).Batsched.Iterate.sigma

let test_multistart_validation () =
  let g = diamond () in
  let cfg = Batsched.Config.make ~deadline:20.0 () in
  Alcotest.check_raises "starts" (Invalid_argument "Iterate.run_multistart: starts < 1")
    (fun () ->
      ignore
        (Batsched.Iterate.run_multistart ~rng:(Batsched_numeric.Rng.create 1)
           ~starts:0 cfg g))

(* --- Idle (peak shaving) --- *)

let test_idle_peak_sigma_constant_load () =
  (* under constant load sigma is increasing, so the peak is at the
     end *)
  let model = Batsched_battery.Rakhmatov.model () in
  let p = Batsched_battery.Profile.constant ~current:400.0 ~duration:30.0 in
  check_close 1e-9 "peak at end"
    (Batsched_battery.Model.sigma model p ~at:30.0)
    (Batsched.Idle.peak_sigma model p)

let test_idle_never_raises_peak () =
  let g = diamond () in
  let cfg = Batsched.Config.make ~deadline:20.0 () in
  let sched = (Batsched.Iterate.run cfg g).Batsched.Iterate.schedule in
  let r = Batsched.Idle.optimize cfg g sched in
  Alcotest.(check bool) "improvement nonneg" true
    (r.Batsched.Idle.improvement >= -1e-9);
  Alcotest.(check bool) "gapped <= packed" true
    (r.Batsched.Idle.peak_gapped <= r.Batsched.Idle.peak_packed +. 1e-9)

let test_idle_fits_deadline () =
  let g = diamond () in
  let deadline = 22.0 in
  let cfg = Batsched.Config.make ~deadline () in
  (* force structural slack: schedule against a tighter inner deadline *)
  let inner = Batsched.Config.make ~deadline:12.0 () in
  let sched = (Batsched.Iterate.run inner g).Batsched.Iterate.schedule in
  let r = Batsched.Idle.optimize cfg g sched in
  Alcotest.(check bool) "fits deadline" true
    (Batsched_battery.Profile.length r.Batsched.Idle.profile
     <= deadline +. 1e-6)

let test_idle_shaves_with_structural_slack () =
  (* a sprint schedule plus generous slack must benefit from rest *)
  let g = Instances.g3 in
  let cfg_inner = Batsched.Config.make ~deadline:170.0 () in
  let cfg_full = Batsched.Config.make ~deadline:230.0 () in
  let sched = (Batsched.Iterate.run cfg_inner g).Batsched.Iterate.schedule in
  let r = Batsched.Idle.optimize cfg_full g sched in
  Alcotest.(check bool) "positive shave" true
    (r.Batsched.Idle.improvement > 0.0);
  Alcotest.(check bool) "has placements" true
    (r.Batsched.Idle.placements <> [])

let test_idle_rejects_missed_deadline () =
  let g = diamond () in
  let cfg = Batsched.Config.make ~deadline:30.0 () in
  let sched = (Batsched.Iterate.run cfg g).Batsched.Iterate.schedule in
  let tight = Batsched.Config.make ~deadline:8.0 () in
  Alcotest.check_raises "missed"
    (Invalid_argument "Idle.optimize: schedule misses the deadline")
    (fun () -> ignore (Batsched.Idle.optimize tight g sched))

let test_idle_survivable_window () =
  let g = Instances.g3 in
  let cfg_inner = Batsched.Config.make ~deadline:170.0 () in
  let cfg_full = Batsched.Config.make ~deadline:230.0 () in
  let sched = (Batsched.Iterate.run cfg_inner g).Batsched.Iterate.schedule in
  let r = Batsched.Idle.optimize cfg_full g sched in
  let lo, hi = Batsched.Idle.survivable_alphas r in
  check_float "lo is gapped peak" r.Batsched.Idle.peak_gapped lo;
  check_float "hi is packed peak" r.Batsched.Idle.peak_packed hi;
  (* a battery inside the window really does die packed and survive
     gapped *)
  let alpha = 0.5 *. (lo +. hi) in
  let model = cfg_full.Batsched.Config.model in
  let packed = Schedule.to_profile g sched in
  Alcotest.(check bool) "dies packed" false
    (Batsched_battery.Lifetime.survives ~model ~alpha packed);
  Alcotest.(check bool) "survives gapped" true
    (Batsched_battery.Lifetime.survives ~model ~alpha r.Batsched.Idle.profile)

(* --- term-weight ablation plumbing --- *)

let test_knockout_weights_still_feasible () =
  let g = Instances.g2 in
  List.iter
    (fun weights ->
      let cfg = Batsched.Config.make ~weights ~deadline:55.0 () in
      let r = Batsched.Iterate.run cfg g in
      Alcotest.(check bool) "meets deadline" true (r.finish <= 55.0 +. 1e-9))
    [ { Batsched.Config.paper_weights with Batsched.Config.sr = 0.0 };
      { Batsched.Config.paper_weights with Batsched.Config.cr = 0.0 };
      { Batsched.Config.paper_weights with Batsched.Config.enr = 0.0 };
      { Batsched.Config.paper_weights with Batsched.Config.cif = 0.0 };
      { Batsched.Config.paper_weights with Batsched.Config.dpf = 0.0 } ]

(* --- qcheck properties --- *)

let gen_case =
  QCheck.(map
            (fun (seed, slack10) ->
              let rng = Batsched_numeric.Rng.create seed in
              let spec = { Generators.default_spec with Generators.num_points = 4 } in
              let g = Generators.fork_join ~rng ~spec ~widths:[ 2; 3 ] in
              let slack = 0.05 +. (0.9 *. float_of_int slack10 /. 10.0) in
              (g, Generators.feasible_deadline g ~slack))
            (pair (int_bound 10_000) (int_bound 10)))

(* Give about a quarter of the tasks a zero-length upgrade step: two
   adjacent design points that share duration and current.  Half of
   those also share the voltage, so the two columns tie exactly on every
   metric, and the tie must go to the higher column, which the trials
   visit first. *)
let with_zero_steps rng g =
  let module Rng = Batsched_numeric.Rng in
  Graph.map_tasks
    (fun (t : Task.t) ->
      let pts = Array.copy t.Task.points in
      let m = Array.length pts in
      if m < 2 || Rng.int rng 4 <> 0 then t
      else begin
        let j = Rng.int rng (m - 1) in
        let voltage =
          if Rng.bool rng then pts.(j).Task.voltage else pts.(j + 1).Task.voltage
        in
        pts.(j + 1) <- { (pts.(j)) with Task.voltage };
        Task.make ~id:t.Task.id ~name:t.Task.name (Array.to_list pts)
      end)
    g

(* Cases at the benchmark's scale for the incremental-vs-oracle
   properties: fork-joins of 8-132 tasks with 4 or 5 design points, at
   slacks 0.05-0.95, half of them with zero-length upgrade steps. *)
let gen_choose_case =
  QCheck.(map
            (fun (seed, size, slack10, zero_steps) ->
              let rng = Batsched_numeric.Rng.create seed in
              let m = 4 + (size mod 2) in
              let spec = { Generators.default_spec with Generators.num_points = m } in
              (* stages of 2-6 tasks until the graph has [size] tasks *)
              let rec widths tasks acc =
                if tasks >= size then List.rev acc
                else
                  let w = 2 + Batsched_numeric.Rng.int rng 5 in
                  widths (tasks + w + 1) (w :: acc)
              in
              let g = Generators.fork_join ~rng ~spec ~widths:(widths 1 []) in
              let g = if zero_steps then with_zero_steps rng g else g in
              let slack = 0.05 +. (0.9 *. float_of_int slack10 /. 10.0) in
              (g, Generators.feasible_deadline g ~slack))
            (quad (int_bound 10_000) (int_range 8 126) (int_bound 10) bool))

let prop_iterate_always_feasible =
  QCheck.Test.make ~count:40
    ~name:"iterate returns a feasible schedule on random instances" gen_case
    (fun (g, deadline) ->
      let cfg = Batsched.Config.make ~deadline () in
      let r = Batsched.Iterate.run cfg g in
      Analysis.is_topological g r.Batsched.Iterate.schedule.Schedule.sequence
      && r.Batsched.Iterate.finish <= deadline +. 1e-9)

let prop_iterate_min_sigma_monotone =
  QCheck.Test.make ~count:25 ~name:"per-iteration min sigma is monotone"
    gen_case (fun (g, deadline) ->
      let cfg = Batsched.Config.make ~deadline () in
      let r = Batsched.Iterate.run cfg g in
      let rec monotone = function
        | (a : Batsched.Iterate.iteration)
          :: (b :: _ as rest) -> a.min_sigma >= b.min_sigma -. 1e-9 && monotone rest
        | _ -> true
      in
      monotone r.Batsched.Iterate.iterations)

let prop_choose_within_window =
  QCheck.Test.make ~count:40 ~name:"chosen columns always inside the window"
    gen_case (fun (g, deadline) ->
      let cfg = Batsched.Config.make ~deadline () in
      let ws = Batsched.Window.initial_window_start cfg g in
      let seq = Priorities.sequence_dec_energy g in
      let a = Batsched.Choose.choose_design_points cfg g ~sequence:seq ~window_start:ws in
      List.for_all
        (fun i -> Assignment.column a i >= ws)
        (List.init (Graph.num_tasks g) Fun.id))

(* --- incremental CalculateDPF vs the seed evaluation
   ([Batsched_oracles.Choose]) --- *)

let test_choose_incremental_matches_reference_instances () =
  (* selection identity on every published instance, every published
     deadline, every feasible window start: the incremental evaluation
     must commit exactly the schedules the seed implementation did *)
  List.iter
    (fun (g, deadlines) ->
      List.iter
        (fun deadline ->
          let cfg = Batsched.Config.make ~deadline () in
          let seq = Priorities.sequence_dec_energy g in
          for ws = 0 to Batsched.Window.initial_window_start cfg g do
            let a =
              Batsched.Choose.choose_design_points cfg g ~sequence:seq
                ~window_start:ws
            in
            let b =
              Batsched_oracles.Choose.choose_design_points cfg g
                ~sequence:seq ~window_start:ws
            in
            Alcotest.(check (list int))
              (Printf.sprintf "%s d=%.0f ws=%d" (Graph.label g) deadline ws)
              (Assignment.to_list b) (Assignment.to_list a)
          done)
        deadlines)
    [ (Instances.g2, Instances.g2_deadlines);
      (Instances.g3, Instances.g3_deadlines) ]

let prop_choose_incremental_matches_reference =
  QCheck.Test.make ~count:300
    ~name:"incremental choose selects the reference schedule" gen_choose_case
    (fun (g, deadline) ->
      let cfg = Batsched.Config.make ~deadline () in
      let seq = Priorities.sequence_dec_energy g in
      let top = Batsched.Window.initial_window_start cfg g in
      List.for_all
        (fun ws ->
          Assignment.equal
            (Batsched.Choose.choose_design_points cfg g ~sequence:seq
               ~window_start:ws)
            (Batsched_oracles.Choose.choose_design_points cfg g
               ~sequence:seq ~window_start:ws))
        (List.init (top + 1) Fun.id))

(* a random mid-selection state, shaped the way [choose_design_points]
   shapes them: suffix fixed at arbitrary window columns, tagged task at
   an arbitrary window column, free prefix parked at lowest power *)
let random_dpf_state rng g ~window_start ~tagged_pos seq =
  let n = Graph.num_tasks g in
  let m = Graph.num_points g in
  let cols = Array.make n (m - 1) in
  let draw () =
    window_start + Batsched_numeric.Rng.int rng (m - window_start)
  in
  for pos = tagged_pos to n - 1 do
    cols.(seq.(pos)) <- draw ()
  done;
  Assignment.of_list g (Array.to_list cols)

(* [f ()] with the number of upgrade steps it counted in [dpf_steps] *)
let counting_dpf_steps f =
  let probe = Batsched_numeric.Probe.local () in
  let before = probe.Batsched_numeric.Probe.dpf_steps in
  let r = f () in
  (r, probe.Batsched_numeric.Probe.dpf_steps - before)

(* Besides the metrics and the hypothetical assignment, both paths must
   count the same number of upgrade steps in [dpf_steps]. *)
let prop_calculate_dpf_metrics_match =
  QCheck.Test.make ~count:120
    ~name:"calculate_dpf agrees with the reference within 1e-9"
    QCheck.(pair gen_choose_case (int_bound 10_000))
    (fun ((g, deadline), seed) ->
      let cfg = Batsched.Config.make ~deadline () in
      let rng = Batsched_numeric.Rng.create (seed + 1) in
      let seq = Array.of_list (Priorities.sequence_dec_energy g) in
      let n = Array.length seq in
      let ws = Batsched.Window.initial_window_start cfg g in
      let close a b =
        (a = Float.infinity && b = Float.infinity) || Float.abs (a -. b) <= 1e-9
      in
      List.for_all
        (fun tagged_pos ->
          let a = random_dpf_state rng g ~window_start:ws ~tagged_pos seq in
          let r, steps =
            counting_dpf_steps (fun () ->
                Batsched.Choose.calculate_dpf cfg g ~sequence:seq
                  ~assignment:a ~tagged_pos ~window_start:ws)
          in
          let r', steps' =
            counting_dpf_steps (fun () ->
                Batsched_oracles.Choose.calculate_dpf cfg g ~sequence:seq
                  ~assignment:a ~tagged_pos ~window_start:ws)
          in
          steps = steps'
          && close r.Batsched.Choose.dpf r'.Batsched.Choose.dpf
          && close r.Batsched.Choose.enr r'.Batsched.Choose.enr
          && close r.Batsched.Choose.cif r'.Batsched.Choose.cif
          && Assignment.equal r.Batsched.Choose.hypothetical
               r'.Batsched.Choose.hypothetical)
        (List.init n Fun.id))

(* The 154-task fork-join graph of the allocation guards below. *)
let allocation_case () =
  let g =
    Generators.fork_join ~rng:(Batsched_numeric.Rng.create 3)
      ~spec:Generators.default_spec
      ~widths:(List.init 31 (fun i -> 2 + (i mod 5)))
  in
  (g, Batsched.Config.make ~deadline:(Generators.feasible_deadline g ~slack:0.3) ())

(* Allocation guard on a 154-task fork-join graph: the per-iteration
   bookkeeping (Eq. 4 weights, precedence checks, position entry)
   allocates O(n) words per call; the seed loop took ~1.58M words. *)
let test_iterate_allocation () =
  let g, cfg = allocation_case () in
  let words () =
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (Batsched.Iterate.run cfg g));
    Gc.minor_words () -. w0
  in
  (* warm-up, so one-time set-up is not measured *)
  ignore (words ());
  let w = words () in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words <= 800k" w)
    true (w <= 800_000.0)

(* Allocation guard for one choose call on the same graph, at every
   window start: the carried state patches preallocated flat tables, so
   a call allocates its context and the returned assignment, O(n·m)
   words.  Per-trial tuples, boxed metrics and incumbents took ~52k
   words per call here. *)
let test_choose_allocation () =
  let g, cfg = allocation_case () in
  let seq = Priorities.sequence_dec_energy g in
  let n = Graph.num_tasks g and m = Graph.num_points g in
  let bound = float_of_int (8 * n * m) in
  for ws = 0 to Batsched.Window.initial_window_start cfg g do
    let words () =
      let w0 = Gc.minor_words () in
      ignore
        (Sys.opaque_identity
           (Batsched.Choose.choose_design_points cfg g ~sequence:seq
              ~window_start:ws));
      Gc.minor_words () -. w0
    in
    ignore (words ());
    let w = words () in
    Alcotest.(check bool)
      (Printf.sprintf "ws=%d: %.0f minor words <= %.0f" ws w bound)
      true (w <= bound)
  done

(* Metamorphic, no oracle: under RV, doubling every current doubles
   every sigma bit for bit and leaves every ratio, order and time the
   search compares unchanged (argument in DESIGN.md §6), so the run
   returns the same schedule at exactly twice the sigma. *)
let test_iterate_doubled_currents () =
  let double g =
    Graph.map_tasks
      (fun (t : Task.t) ->
        Task.make ~id:t.Task.id ~name:t.Task.name
          (List.map
             (fun (p : Task.design_point) ->
               { p with Task.current = 2.0 *. p.Task.current })
             (Array.to_list t.Task.points)))
      g
  in
  let check label g ~deadline =
    let cfg = Batsched.Config.make ~deadline () in
    let a = Batsched.Iterate.run cfg g
    and b = Batsched.Iterate.run cfg (double g) in
    Alcotest.(check (list int)) (label ^ " sequence")
      a.Batsched.Iterate.schedule.Schedule.sequence
      b.Batsched.Iterate.schedule.Schedule.sequence;
    Alcotest.(check (list int)) (label ^ " assignment")
      (Assignment.to_list a.Batsched.Iterate.schedule.Schedule.assignment)
      (Assignment.to_list b.Batsched.Iterate.schedule.Schedule.assignment);
    Alcotest.(check bool) (label ^ " sigma exactly doubled") true
      (Int64.equal
         (Int64.bits_of_float b.Batsched.Iterate.sigma)
         (Int64.bits_of_float (2.0 *. a.Batsched.Iterate.sigma)))
  in
  List.iter
    (fun deadline -> check (Printf.sprintf "g2/%g" deadline) Instances.g2 ~deadline)
    Instances.g2_deadlines;
  check "g3/230" Instances.g3 ~deadline:230.0;
  for seed = 1 to 40 do
    let g =
      Generators.fork_join ~rng:(Batsched_numeric.Rng.create seed)
        ~spec:Generators.default_spec ~widths:[ 15; 15; 15; 14 ]
    in
    List.iter
      (fun slack ->
        check
          (Printf.sprintf "n64 seed %d slack %g" seed slack)
          g ~deadline:(Generators.feasible_deadline g ~slack))
      [ 0.3; 0.6 ]
  done

(* --- parallel paths vs the sequential reference --- *)

let parallel_pool = Batsched_numeric.Pool.create 4

let same_result name (a : Batsched.Iterate.result) (b : Batsched.Iterate.result) =
  Alcotest.(check (list int))
    (name ^ " sequence") a.Batsched.Iterate.schedule.Schedule.sequence
    b.Batsched.Iterate.schedule.Schedule.sequence;
  Alcotest.(check (list int))
    (name ^ " assignment")
    (Assignment.to_list a.Batsched.Iterate.schedule.Schedule.assignment)
    (Assignment.to_list b.Batsched.Iterate.schedule.Schedule.assignment);
  Alcotest.(check bool) (name ^ " sigma bit-identical") true
    (Float.equal a.Batsched.Iterate.sigma b.Batsched.Iterate.sigma)

let test_parallel_window_evaluate_identical () =
  List.iter
    (fun (g, deadline) ->
      let seq = Priorities.sequence_dec_energy g in
      let seq_cfg = Batsched.Config.make ~deadline () in
      let par_cfg = Batsched.Config.make ~pool:parallel_pool ~deadline () in
      let a = Batsched.Window.evaluate seq_cfg g ~sequence:seq in
      let b = Batsched.Window.evaluate par_cfg g ~sequence:seq in
      let summary (w : Batsched.Window.t) =
        List.map
          (fun (r : Batsched.Window.window_result) ->
            (r.window_start, Assignment.to_list r.assignment))
          w.Batsched.Window.per_window
      in
      Alcotest.(check (list (pair int (list int)))) "per-window identical"
        (summary a) (summary b);
      Alcotest.(check bool) "best sigma bit-identical" true
        (Float.equal a.Batsched.Window.best.Batsched.Window.sigma
           b.Batsched.Window.best.Batsched.Window.sigma))
    [ (Instances.g3, 230.0); (Instances.g2, 75.0); (Instances.g2, 95.0) ]

let test_parallel_multistart_identical_instances () =
  (* acceptance gate: on all published instances the pooled multistart
     must return bit-identical schedules to the sequential path *)
  List.iter
    (fun (g, deadline) ->
      let seq_cfg = Batsched.Config.make ~deadline () in
      let par_cfg = Batsched.Config.make ~pool:parallel_pool ~deadline () in
      let run cfg =
        Batsched.Iterate.run_multistart
          ~rng:(Batsched_numeric.Rng.create 11) ~starts:6 cfg g
      in
      same_result (Graph.label g) (run seq_cfg) (run par_cfg))
    ((Instances.g3, Instances.g3_deadline)
     :: List.map (fun d -> (Instances.g2, d)) Instances.g2_deadlines)

let prop_parallel_multistart_matches_sequential =
  QCheck.Test.make ~count:25
    ~name:"parallel multistart bit-identical to sequential on random graphs"
    gen_case (fun (g, deadline) ->
      let run pool =
        Batsched.Iterate.run_multistart
          ~rng:(Batsched_numeric.Rng.create 5) ~starts:4
          (Batsched.Config.make ~pool ~deadline ())
          g
      in
      let a = run Batsched_numeric.Pool.sequential in
      let b = run parallel_pool in
      a.Batsched.Iterate.schedule.Schedule.sequence
      = b.Batsched.Iterate.schedule.Schedule.sequence
      && Assignment.equal a.Batsched.Iterate.schedule.Schedule.assignment
           b.Batsched.Iterate.schedule.Schedule.assignment
      && Float.equal a.Batsched.Iterate.sigma b.Batsched.Iterate.sigma)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_iterate_always_feasible;
      prop_iterate_min_sigma_monotone;
      prop_choose_within_window;
      prop_choose_incremental_matches_reference;
      prop_calculate_dpf_metrics_match;
      prop_parallel_multistart_matches_sequential ]

let () =
  Alcotest.run "core"
    [ ( "config",
        [ Alcotest.test_case "defaults" `Quick test_config_defaults;
          Alcotest.test_case "validation" `Quick test_config_validation ] );
      ( "window",
        [ Alcotest.test_case "initial start full slack" `Quick test_window_initial_start_full_slack;
          Alcotest.test_case "initial start tight" `Quick test_window_initial_start_tight;
          Alcotest.test_case "unmeetable raises" `Quick test_window_unmeetable_raises;
          Alcotest.test_case "sweep narrow to wide" `Quick test_window_evaluate_sweeps_down_to_zero;
          Alcotest.test_case "best is min" `Quick test_window_best_is_min_sigma;
          Alcotest.test_case "results meet deadline" `Quick test_window_results_meet_deadline;
          Alcotest.test_case "mask" `Quick test_window_mask ] );
      ( "choose",
        [ Alcotest.test_case "last task lowest power" `Quick test_choose_last_task_lowest_power;
          Alcotest.test_case "meets deadline" `Quick test_choose_meets_deadline;
          Alcotest.test_case "loose deadline all lowest" `Quick test_choose_loose_deadline_all_lowest;
          Alcotest.test_case "respects window" `Quick test_choose_respects_window;
          Alcotest.test_case "rejects bad sequence" `Quick test_choose_rejects_bad_sequence;
          Alcotest.test_case "dpf feasible state" `Quick test_calculate_dpf_feasible_state;
          Alcotest.test_case "dpf upgrades low energy first" `Quick test_calculate_dpf_upgrades_low_energy_first;
          Alcotest.test_case "dpf infeasible infinite" `Quick test_calculate_dpf_infeasible_is_infinite;
          Alcotest.test_case "dpf last-task slack rule" `Quick test_calculate_dpf_last_task_slack_rule ]
        @ dpf_boundary_tests );
      ( "iterate",
        [ Alcotest.test_case "G3 shape" `Quick test_iterate_g3_shape;
          Alcotest.test_case "G3 beats first iteration" `Quick test_iterate_g3_beats_first_iteration;
          Alcotest.test_case "G3 sequences topological" `Quick test_iterate_g3_weighted_sequences_topological;
          Alcotest.test_case "G3 every iteration usable" `Quick test_iterate_g3_every_iteration_usable;
          Alcotest.test_case "G2 all deadlines" `Quick test_iterate_g2_all_deadlines;
          Alcotest.test_case "sigma monotone in deadline" `Quick test_iterate_sigma_decreases_with_deadline;
          Alcotest.test_case "unmeetable deadline" `Quick test_iterate_unmeetable_deadline;
          Alcotest.test_case "single task" `Quick test_iterate_single_task_graph;
          Alcotest.test_case "max iterations" `Quick test_iterate_respects_max_iterations;
          Alcotest.test_case "ideal model minimal charge" `Quick test_iterate_ideal_model_prefers_low_energy;
          Alcotest.test_case "allocation guard" `Quick test_iterate_allocation;
          Alcotest.test_case "choose allocation guard" `Quick test_choose_allocation;
          Alcotest.test_case "doubled currents" `Quick test_iterate_doubled_currents ] );
      ( "regression",
        [ Alcotest.test_case "published points pinned" `Quick test_published_points_pinned;
          Alcotest.test_case "incremental matches reference on instances" `Quick
            test_choose_incremental_matches_reference_instances ] );
      ( "preprocessing",
        [ Alcotest.test_case "reduction preserves result" `Quick test_transitive_reduction_preserves_result ] );
      ( "polish",
        [ Alcotest.test_case "never worse" `Quick test_polish_never_worse;
          Alcotest.test_case "improves bad order" `Quick test_polish_improves_bad_order;
          Alcotest.test_case "validation" `Quick test_polish_validation;
          Alcotest.test_case "delta matches reference" `Quick test_polish_delta_matches_reference ] );
      ( "multistart",
        [ Alcotest.test_case "never worse" `Quick test_multistart_never_worse_than_single;
          Alcotest.test_case "one start equals run" `Quick test_multistart_one_start_equals_run;
          Alcotest.test_case "validation" `Quick test_multistart_validation ] );
      ( "parallel",
        [ Alcotest.test_case "window evaluate identical" `Quick
            test_parallel_window_evaluate_identical;
          Alcotest.test_case "multistart identical on instances" `Quick
            test_parallel_multistart_identical_instances ] );
      ( "idle",
        [ Alcotest.test_case "peak of constant load" `Quick test_idle_peak_sigma_constant_load;
          Alcotest.test_case "never raises peak" `Quick test_idle_never_raises_peak;
          Alcotest.test_case "fits deadline" `Quick test_idle_fits_deadline;
          Alcotest.test_case "shaves with slack" `Quick test_idle_shaves_with_structural_slack;
          Alcotest.test_case "rejects missed deadline" `Quick test_idle_rejects_missed_deadline;
          Alcotest.test_case "survivable window" `Quick test_idle_survivable_window ] );
      ( "ablation",
        [ Alcotest.test_case "knockouts stay feasible" `Quick test_knockout_weights_still_feasible ] );
      ("properties", qcheck_tests) ]
