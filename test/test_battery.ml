(* Tests for the battery substrate: profiles, the three models,
   lifetime estimation and the demonstration curves. *)

open Batsched_battery
module Oracles = Batsched_oracles

let check_float = Alcotest.(check (float 1e-9))
let check_close eps = Alcotest.(check (float eps))

(* --- Profile --- *)

let test_profile_empty () =
  check_float "length" 0.0 (Profile.length Profile.empty);
  check_float "charge" 0.0 (Profile.total_charge Profile.empty)

let test_profile_sequential_layout () =
  let p = Profile.sequential [ (100.0, 2.0); (200.0, 3.0); (50.0, 1.0) ] in
  let ivs = Profile.intervals p in
  Alcotest.(check int) "three intervals" 3 (List.length ivs);
  let starts = List.map (fun iv -> iv.Profile.start) ivs in
  Alcotest.(check (list (float 1e-9))) "back to back" [ 0.0; 2.0; 5.0 ] starts;
  check_float "length" 6.0 (Profile.length p)

let test_profile_total_charge () =
  let p = Profile.sequential [ (100.0, 2.0); (200.0, 3.0) ] in
  check_float "charge" 800.0 (Profile.total_charge p)

let test_profile_drops_zero_duration () =
  let p = Profile.sequential [ (100.0, 0.0); (200.0, 3.0) ] in
  Alcotest.(check int) "one interval" 1 (List.length (Profile.intervals p))

let test_profile_rejects_overlap () =
  Alcotest.check_raises "overlap"
    (Invalid_argument "Profile: overlapping intervals") (fun () ->
      ignore (Profile.of_intervals [ (0.0, 5.0, 10.0); (3.0, 2.0, 10.0) ]))

let test_profile_rejects_negative_current () =
  Alcotest.check_raises "negative current"
    (Invalid_argument "Profile: negative current") (fun () ->
      ignore (Profile.of_intervals [ (0.0, 1.0, -5.0) ]))

let test_profile_touching_ok () =
  let p = Profile.of_intervals [ (0.0, 2.0, 10.0); (2.0, 2.0, 20.0) ] in
  Alcotest.(check int) "two intervals" 2 (List.length (Profile.intervals p))

let test_profile_truncate_clips () =
  let p = Profile.sequential [ (100.0, 4.0) ] in
  let t = Profile.truncate p ~at:2.5 in
  check_float "clipped charge" 250.0 (Profile.total_charge t)

let test_profile_truncate_drops_later () =
  let p = Profile.sequential [ (100.0, 2.0); (200.0, 2.0) ] in
  let t = Profile.truncate p ~at:2.0 in
  Alcotest.(check int) "only first" 1 (List.length (Profile.intervals t))

let test_profile_with_idle () =
  let p = Profile.sequential [ (100.0, 2.0); (200.0, 2.0) ] in
  let q = Profile.with_idle p ~after:2.0 ~idle:5.0 in
  check_float "gap opened" 9.0 (Profile.length q);
  check_float "charge unchanged" (Profile.total_charge p) (Profile.total_charge q)

let test_profile_peak_current () =
  let p = Profile.sequential [ (100.0, 1.0); (700.0, 1.0); (300.0, 1.0) ] in
  check_float "peak" 700.0 (Profile.peak_current p)

(* --- Ideal model --- *)

let test_ideal_equals_charge () =
  let p = Profile.sequential [ (123.0, 4.5); (67.0, 2.5) ] in
  check_float "sigma = coulombs" (Profile.total_charge p)
    (Model.sigma_end Ideal.model p)

let test_ideal_truncation () =
  let p = Profile.sequential [ (100.0, 10.0) ] in
  check_float "half" 500.0 (Ideal.sigma p ~at:5.0)

(* --- Peukert model --- *)

let test_peukert_reference_current_ideal () =
  let p = Profile.constant ~current:100.0 ~duration:10.0 in
  check_close 1e-6 "reference" 1000.0
    (Peukert.sigma ~reference_current:100.0 p ~at:10.0)

let test_peukert_penalizes_high_current () =
  let hi = Profile.constant ~current:400.0 ~duration:10.0 in
  Alcotest.(check bool) "superlinear" true
    (Peukert.sigma hi ~at:10.0 > Profile.total_charge hi)

let test_peukert_rewards_low_current () =
  let lo = Profile.constant ~current:25.0 ~duration:10.0 in
  Alcotest.(check bool) "sublinear" true
    (Peukert.sigma lo ~at:10.0 < Profile.total_charge lo)

let test_peukert_exponent_one_is_ideal () =
  let p = Profile.sequential [ (300.0, 5.0); (80.0, 3.0) ] in
  check_close 1e-9 "p=1" (Profile.total_charge p)
    (Peukert.sigma ~exponent:1.0 p ~at:8.0)

let test_peukert_invalid () =
  Alcotest.check_raises "exponent < 1"
    (Invalid_argument "Peukert.sigma: exponent must be >= 1") (fun () ->
      ignore (Peukert.sigma ~exponent:0.5 Profile.empty ~at:0.0))

(* --- Rakhmatov model --- *)

let test_rv_exceeds_ideal_during_load () =
  let p = Profile.constant ~current:500.0 ~duration:30.0 in
  let sigma = Rakhmatov.sigma p ~at:30.0 in
  Alcotest.(check bool) "above coulombs" true (sigma > Profile.total_charge p)

let test_rv_recovers_at_rest () =
  let p = Profile.constant ~current:500.0 ~duration:30.0 in
  let long_after = Rakhmatov.sigma p ~at:100000.0 in
  check_close 1.0 "full recovery" (Profile.total_charge p) long_after

let test_rv_monotone_in_time_during_load () =
  let p = Profile.constant ~current:500.0 ~duration:60.0 in
  let s t = Rakhmatov.sigma p ~at:t in
  Alcotest.(check bool) "monotone" true (s 10.0 < s 30.0 && s 30.0 < s 60.0)

let test_rv_zero_at_time_zero () =
  let p = Profile.constant ~current:500.0 ~duration:60.0 in
  check_float "zero" 0.0 (Rakhmatov.sigma p ~at:0.0)

let test_rv_large_beta_is_ideal () =
  let p = Profile.sequential [ (400.0, 5.0); (100.0, 10.0) ] in
  check_close 0.5 "ideal limit" (Profile.total_charge p)
    (Rakhmatov.sigma ~beta:50.0 p ~at:15.0)

(* The entry points accept beta from 1e-150 to 1e150; sigma is finite
   at both ends, and just past the top (beta^2 m^2 overflows at
   m = 10, so F(0) is inf * 0) it is nan. *)
let test_rv_valid_beta_range () =
  let p = Profile.sequential [ (400.0, 5.0); (100.0, 10.0) ] in
  List.iter
    (fun beta ->
      Alcotest.(check bool) (Printf.sprintf "%g valid" beta) true
        (Rakhmatov.valid_beta beta);
      Alcotest.(check bool) (Printf.sprintf "sigma finite at %g" beta) true
        (Float.is_finite (Rakhmatov.sigma ~beta p ~at:15.0)))
    [ 1e-150; Rakhmatov.default_beta; 1e150 ];
  Alcotest.(check bool) "sigma nan at 1e154" true
    (Float.is_nan (Rakhmatov.sigma ~beta:1e154 p ~at:15.0));
  List.iter
    (fun beta ->
      Alcotest.(check bool) (Printf.sprintf "%g invalid" beta) false
        (Rakhmatov.valid_beta beta))
    [ 1e154; 1e-300; 0.0; -1.0; Float.infinity; Float.nan ]

let test_rv_superposition_of_currents () =
  (* sigma is linear in current magnitudes: doubling currents doubles it *)
  let p1 = Profile.sequential [ (100.0, 5.0); (300.0, 5.0) ] in
  let p2 = Profile.sequential [ (200.0, 5.0); (600.0, 5.0) ] in
  check_close 1e-6 "linear"
    (2.0 *. Rakhmatov.sigma p1 ~at:10.0)
    (Rakhmatov.sigma p2 ~at:10.0)

let test_rv_paper_magnitude () =
  (* the G3 example's best profiles cost ~13-17k mA*min over ~230 min; a
     constant-current surrogate of the same average load must land in
     the same decade *)
  let p = Profile.constant ~current:60.0 ~duration:229.8 in
  let sigma = Rakhmatov.sigma ~beta:0.273 p ~at:229.8 in
  Alcotest.(check bool) "same decade" true (sigma > 13000.0 && sigma < 20000.0)

let test_rv_ordering_theorem_pairwise () =
  let heavy_first = Profile.sequential [ (800.0, 10.0); (100.0, 10.0) ] in
  let light_first = Profile.sequential [ (100.0, 10.0); (800.0, 10.0) ] in
  Alcotest.(check bool) "decreasing wins" true
    (Model.sigma_end (Rakhmatov.model ()) heavy_first
     < Model.sigma_end (Rakhmatov.model ()) light_first)

let test_rv_unavailable_nonnegative () =
  let p = Profile.sequential [ (500.0, 10.0); (200.0, 20.0) ] in
  Alcotest.(check bool) "nonneg" true
    (Rakhmatov.unavailable_charge p ~at:30.0 >= 0.0)

let test_rv_sigma_can_dip_after_heavy_load () =
  (* a documented non-monotonicity: once a heavy interval ends, its
     recoverable unavailable charge relaxes faster than a light
     successor accrues, so sigma dips — exactly the recovery phenomenon
     the scheduler exploits by putting heavy tasks early *)
  let p = Profile.sequential [ (550.0, 25.0); (50.0, 20.0) ] in
  let during = Rakhmatov.sigma p ~at:25.0 in
  let later = Rakhmatov.sigma p ~at:35.0 in
  Alcotest.(check bool) "dips" true (later < during)

let test_lifetime_first_crossing_on_dip () =
  (* with a dipping sigma the battery dies at the FIRST crossing even if
     sigma later falls back under alpha *)
  let model = Rakhmatov.model () in
  let p = Profile.sequential [ (550.0, 25.0); (50.0, 20.0) ] in
  let peak = Rakhmatov.sigma p ~at:25.0 in
  let at_end = Model.sigma_end model p in
  let alpha = (peak +. at_end) /. 2.0 in
  (* alpha sits between the dip and the peak: death must be reported *)
  match Lifetime.of_profile ~model ~alpha p with
  | Lifetime.Dies_at t ->
      Alcotest.(check bool) "dies before the heavy interval ends" true
        (t <= 25.0 +. 1e-3)
  | Lifetime.Survives _ -> Alcotest.fail "must report first crossing"

let test_rv_negative_time_rejected () =
  Alcotest.check_raises "negative"
    (Invalid_argument "Rakhmatov.sigma: negative time") (fun () ->
      ignore (Rakhmatov.sigma Profile.empty ~at:(-1.0)))

(* --- KiBaM --- *)

let kp = Kibam.default_params

let test_kibam_full_state () =
  let st = Kibam.full kp in
  check_float "available" (kp.Kibam.c *. kp.Kibam.capacity) st.Kibam.available;
  check_float "total" kp.Kibam.capacity (st.Kibam.available +. st.Kibam.bound)

let test_kibam_conservation () =
  (* wells only exchange charge internally: y1 + y2 = y0 - I*t *)
  let st = Kibam.step kp (Kibam.full kp) ~current:400.0 ~duration:30.0 in
  check_close 1e-6 "conservation"
    (kp.Kibam.capacity -. (400.0 *. 30.0))
    (st.Kibam.available +. st.Kibam.bound)

let test_kibam_sigma_zero_at_start () =
  let p = Profile.constant ~current:400.0 ~duration:30.0 in
  check_close 1e-9 "zero" 0.0 (Kibam.sigma p ~at:0.0)

let test_kibam_sigma_equals_drawn_at_equilibrium () =
  (* after a long rest the wells re-equilibrate and sigma -> drawn *)
  let p = Profile.of_intervals [ (0.0, 10.0, 300.0) ] in
  let q = Profile.with_idle p ~after:10.0 ~idle:0.0 in
  ignore q;
  let sigma_late = Kibam.sigma p ~at:100000.0 in
  check_close 1.0 "full recovery" 3000.0 sigma_late

let test_kibam_rate_capacity () =
  (* under load sigma exceeds the coulomb count *)
  let p = Profile.constant ~current:800.0 ~duration:20.0 in
  Alcotest.(check bool) "apparent > drawn" true
    (Kibam.sigma p ~at:20.0 > Profile.total_charge p)

let test_kibam_recovery_between_bursts () =
  (* idle between bursts leaves more available charge at the end *)
  let packed = Profile.sequential [ (800.0, 20.0); (800.0, 20.0) ] in
  let gapped =
    Profile.of_intervals [ (0.0, 20.0, 800.0); (50.0, 20.0, 800.0) ]
  in
  let s_packed = Kibam.sigma packed ~at:40.0 in
  let s_gapped = Kibam.sigma gapped ~at:70.0 in
  Alcotest.(check bool) "recovery" true (s_gapped < s_packed)

let test_kibam_lifetime_decreases_with_load () =
  let model = Kibam.model () in
  let alpha = kp.Kibam.capacity in
  let l c = Lifetime.of_constant_current ~model ~alpha ~current:c in
  Alcotest.(check bool) "monotone" true (l 200.0 > l 400.0 && l 400.0 > l 800.0)

let test_kibam_delivers_less_at_high_rate () =
  let model = Kibam.model () in
  let alpha = kp.Kibam.capacity in
  let delivered c = c *. Lifetime.of_constant_current ~model ~alpha ~current:c in
  Alcotest.(check bool) "rate capacity on delivery" true
    (delivered 100.0 > delivered 1000.0)

let test_kibam_param_validation () =
  Alcotest.check_raises "bad c" (Invalid_argument "Kibam.make_params: c outside (0,1)")
    (fun () -> ignore (Kibam.make_params ~capacity:100.0 ~c:1.5 ~k_prime:0.1))

let test_kibam_step_validation () =
  Alcotest.check_raises "negative current"
    (Invalid_argument "Kibam.step: negative current") (fun () ->
      ignore (Kibam.step kp (Kibam.full kp) ~current:(-1.0) ~duration:1.0))

let test_kibam_zero_duration_step_identity () =
  (* a zero-length interval returns the input state unchanged —
     bit-for-bit, not merely to round-off — so degenerate intervals
     (same-column repoints, zero-duration design points) accumulate no
     drift no matter how many times they are stepped *)
  let st = Kibam.step kp (Kibam.full kp) ~current:650.0 ~duration:7.3 in
  let st' = ref st in
  for _ = 1 to 1000 do
    st' := Kibam.step kp !st' ~current:800.0 ~duration:0.0
  done;
  Alcotest.(check bool) "available bit-identical" true
    (Float.equal (!st').Kibam.available st.Kibam.available);
  Alcotest.(check bool) "bound bit-identical" true
    (Float.equal (!st').Kibam.bound st.Kibam.bound);
  (* state_at through a profile with the same load reaches the same
     place whether or not degenerate intervals are present, because
     the profile layer drops them and step ignores them *)
  let a = Kibam.state_at kp (Profile.sequential [ (650.0, 7.3) ]) ~at:7.3 in
  Alcotest.(check bool) "state_at agrees" true
    (Float.equal a.Kibam.available st.Kibam.available
    && Float.equal a.Kibam.bound st.Kibam.bound)

(* --- Lifetime --- *)

let test_lifetime_survives_light_load () =
  let model = Rakhmatov.model () in
  let p = Profile.constant ~current:10.0 ~duration:60.0 in
  match Lifetime.of_profile ~model ~alpha:Cell.itsy.Cell.alpha p with
  | Lifetime.Survives { headroom; _ } ->
      Alcotest.(check bool) "headroom positive" true (headroom > 0.0)
  | Lifetime.Dies_at _ -> Alcotest.fail "should survive"

let test_lifetime_dies_under_heavy_load () =
  let model = Rakhmatov.model () in
  let p = Profile.constant ~current:2000.0 ~duration:10000.0 in
  match Lifetime.of_profile ~model ~alpha:Cell.itsy.Cell.alpha p with
  | Lifetime.Dies_at t -> Alcotest.(check bool) "positive time" true (t > 0.0)
  | Lifetime.Survives _ -> Alcotest.fail "should die"

let test_lifetime_constant_current_consistent () =
  let model = Rakhmatov.model () in
  let alpha = Cell.itsy.Cell.alpha in
  let current = 500.0 in
  let t = Lifetime.of_constant_current ~model ~alpha ~current in
  let p = Profile.constant ~current ~duration:(2.0 *. t) in
  check_close 1.0 "sigma(T*) = alpha" alpha (model.Model.sigma p ~at:t)

let test_lifetime_decreases_with_load () =
  let model = Rakhmatov.model () in
  let alpha = Cell.itsy.Cell.alpha in
  let l c = Lifetime.of_constant_current ~model ~alpha ~current:c in
  Alcotest.(check bool) "monotone" true (l 100.0 > l 200.0 && l 200.0 > l 800.0)

let test_lifetime_ideal_model_exact () =
  let t =
    Lifetime.of_constant_current ~model:Ideal.model ~alpha:1000.0 ~current:50.0
  in
  check_close 1e-3 "alpha/I" 20.0 t

let test_lifetime_bad_alpha () =
  Alcotest.check_raises "alpha <= 0"
    (Invalid_argument "Lifetime: alpha must be positive") (fun () ->
      ignore (Lifetime.survives ~model:Ideal.model ~alpha:0.0 Profile.empty))

(* --- Diffusion PDE reference --- *)

(* coarse grid keeps these fast; tolerances account for it *)
let pde_params =
  Diffusion.make_params ~nodes:48 ~dt:0.05 ~alpha:40375.0 ~beta:0.273 ()

let test_diffusion_zero_load () =
  let p = Profile.empty in
  check_close 1e-6 "undisturbed" 0.0 (Diffusion.sigma ~params:pde_params p ~at:10.0)

let test_diffusion_conservation_at_rest () =
  (* long after the load, sigma -> drawn charge *)
  let p = Profile.constant ~current:500.0 ~duration:20.0 in
  check_close 30.0 "recovers to coulombs" 10000.0
    (Diffusion.sigma ~params:pde_params p ~at:500.0)

let test_diffusion_matches_analytic_under_load () =
  (* with a long series the analytic model must agree with the PDE *)
  let p = Profile.constant ~current:800.0 ~duration:20.0 in
  let analytic = Rakhmatov.sigma ~terms:5000 p ~at:20.0 in
  let pde = Diffusion.sigma ~params:pde_params p ~at:20.0 in
  check_close (0.005 *. analytic) "first principles" analytic pde

let test_diffusion_matches_analytic_with_recovery () =
  let p = Profile.of_intervals [ (0.0, 20.0, 800.0); (50.0, 20.0, 800.0) ] in
  let analytic = Rakhmatov.sigma ~terms:5000 p ~at:70.0 in
  let pde = Diffusion.sigma ~params:pde_params p ~at:70.0 in
  check_close (0.005 *. analytic) "with recovery" analytic pde

let test_diffusion_ten_terms_undercounts_under_load () =
  (* the documented truncation bias: 10 terms < PDE during discharge *)
  let p = Profile.constant ~current:800.0 ~duration:20.0 in
  Alcotest.(check bool) "undercounts" true
    (Rakhmatov.sigma p ~at:20.0 < Diffusion.sigma ~params:pde_params p ~at:20.0)

let test_diffusion_surface_depletes () =
  let p = Profile.constant ~current:800.0 ~duration:20.0 in
  let s0 = Diffusion.surface_density ~params:pde_params p ~at:0.0 in
  let s20 = Diffusion.surface_density ~params:pde_params p ~at:20.0 in
  check_close 1e-6 "starts full" 40375.0 s0;
  Alcotest.(check bool) "depletes" true (s20 < s0)

let test_diffusion_param_validation () =
  Alcotest.check_raises "nodes" (Invalid_argument "Diffusion.make_params: nodes < 8")
    (fun () -> ignore (Diffusion.make_params ~nodes:2 ~alpha:1.0 ~beta:1.0 ()))

(* A span of 2^53 steps or more has no exact step count, and past 2^63
   the cast gives min_int, which the clamp to one step would turn into
   a single step: dt 1e-300 would integrate this load in one step
   (sigma 5986.95 against the fine grid's 5129.16).  Every path through
   the span prologue refuses it. *)
let test_diffusion_dt_too_small () =
  let params =
    Diffusion.make_params ~nodes:8 ~dt:1e-300 ~alpha:40000.0 ~beta:0.3 ()
  in
  let want =
    Invalid_argument "Diffusion: dt too small for the span (2^53 steps or more)"
  in
  Alcotest.check_raises "sigma" want (fun () ->
      ignore
        (Diffusion.sigma ~params
           (Profile.constant ~current:200.0 ~duration:5.0)
           ~at:5.0));
  let st = Diffusion.stepper params in
  let ops = st.Model.fresh () in
  let u = Array.make st.Model.state_dim 0.0 in
  ops.Model.start u;
  Alcotest.check_raises "stepper" want (fun () ->
      ops.Model.advance u ~current:200.0 ~duration:5.0);
  let lv = st.Model.lanes in
  let g = lv.Model.group () in
  g.Model.load 2 lv.Model.params;
  g.Model.current.(2) <- 200.0;
  g.Model.duration.(2) <- 5.0;
  Alcotest.check_raises "lane" want (fun () -> ignore (g.Model.span 2))

(* --- Periodic --- *)

let ideal = Ideal.model

let outcome_t =
  Alcotest.testable
    (fun fmt -> function
      | Periodic.Dies n -> Format.fprintf fmt "Dies %d" n
      | Periodic.Censored n -> Format.fprintf fmt "Censored %d" n)
    ( = )

let test_periodic_ideal_matches_budget () =
  (* ideal battery: cycles = floor(alpha / charge-per-cycle), period
     irrelevant *)
  let cycle = Profile.constant ~current:100.0 ~duration:10.0 in
  (* 1000 mA*min per cycle; alpha 3500 -> dies in cycle 4, so 3 done *)
  Alcotest.check outcome_t "floor of budget" (Periodic.Dies 3)
    (Periodic.cycles_to_death ~model:ideal ~alpha:3500.0 ~period:20.0 cycle)

let test_periodic_unsustainable_first_cycle () =
  let cycle = Profile.constant ~current:100.0 ~duration:10.0 in
  match
    Periodic.cycles_to_death ~model:ideal ~alpha:500.0 ~period:20.0 cycle
  with
  | _ -> Alcotest.fail "first cycle should be fatal"
  | exception Periodic.Unsustainable sigma ->
      (* the payload is sigma at the fatal probe: the full burst's
         1000 mA*min against alpha 500 *)
      check_float "fatal sigma" 1000.0 sigma

let test_periodic_rv_rest_helps () =
  (* under RV a longer period (more recovery) never sustains fewer
     cycles, and here strictly more *)
  let model = Rakhmatov.model () in
  let cycle = Profile.constant ~current:800.0 ~duration:20.0 in
  let alpha = 62500.0 in
  let tight =
    Periodic.cycles_to_death ~max_cycles:50 ~model ~alpha ~period:20.0 cycle
  in
  let loose =
    Periodic.cycles_to_death ~max_cycles:50 ~model ~alpha ~period:120.0 cycle
  in
  Alcotest.(check bool) "rest helps" true
    (Periodic.cycles loose > Periodic.cycles tight)

let test_periodic_cycle_longer_than_period () =
  let cycle = Profile.constant ~current:100.0 ~duration:10.0 in
  Alcotest.check_raises "too long"
    (Invalid_argument "Periodic: cycle longer than the period") (fun () ->
      ignore
        (Periodic.cycles_to_death ~model:ideal ~alpha:1e6 ~period:5.0 cycle))

let test_periodic_max_cycles_cap () =
  let cycle = Profile.constant ~current:1.0 ~duration:1.0 in
  Alcotest.check outcome_t "capped" (Periodic.Censored 7)
    (Periodic.cycles_to_death ~max_cycles:7 ~model:ideal ~alpha:1e9
       ~period:2.0 cycle)

let test_periodic_fast_path_engages () =
  (* the scalar estimator must route channel models through the channel
     kernel and stepper models through the carried state *)
  let cycle = Profile.constant ~current:100.0 ~duration:10.0 in
  let named c name =
    match List.assoc_opt name (Batsched_numeric.Probe.named_counts c) with
    | Some v -> v
    | None -> 0
  in
  let c0 = Batsched_numeric.Probe.totals () in
  ignore (Periodic.cycles_to_death ~model:ideal ~alpha:3500.0 ~period:20.0 cycle);
  ignore
    (Periodic.cycles_to_death
       ~model:(Diffusion.model ~params:(Diffusion.make_params ~nodes:8 ~dt:1.0 ~alpha:20000.0 ~beta:0.273 ()) ())
       ~alpha:20000.0 ~period:20.0 cycle);
  let c1 = Batsched_numeric.Probe.totals () in
  Alcotest.(check int) "channel device" 1
    (named c1 "periodic/channel_devices" - named c0 "periodic/channel_devices");
  Alcotest.(check int) "carried device" 1
    (named c1 "periodic/carried_devices" - named c0 "periodic/carried_devices")

let test_periodic_batch_matches_scalar () =
  (* heterogeneous population: every device's batch result must agree
     with the scalar call — same code path by construction, so the
     comparison is exact, fatal sigma included *)
  let devices =
    [| { Periodic.model = Ideal.model; alpha = 3500.0; period = 20.0;
         cycle = Profile.constant ~current:100.0 ~duration:10.0 };
       { Periodic.model = Rakhmatov.model (); alpha = 62500.0; period = 30.0;
         cycle = Profile.constant ~current:800.0 ~duration:20.0 };
       { Periodic.model = Kibam.model (); alpha = 20000.0; period = 60.0;
         cycle = Profile.sequential [ (400.0, 10.0); (150.0, 20.0) ] };
       { Periodic.model = Peukert.model (); alpha = 900.0; period = 25.0;
         cycle = Profile.constant ~current:120.0 ~duration:8.0 };
       (* first-cycle death: batch reports Dies 0 where scalar raises *)
       { Periodic.model = Ideal.model; alpha = 500.0; period = 20.0;
         cycle = Profile.constant ~current:100.0 ~duration:10.0 } |]
  in
  let results =
    Periodic.Batch.run ~max_cycles:40 ~n:(Array.length devices)
      ~device:(fun i -> devices.(i))
      ()
  in
  Array.iteri
    (fun i (r : Periodic.Batch.result) ->
      let d = devices.(i) in
      match
        Periodic.cycles_to_death ~max_cycles:40 ~model:d.Periodic.model
          ~alpha:d.Periodic.alpha ~period:d.Periodic.period d.Periodic.cycle
      with
      | outcome ->
          Alcotest.check outcome_t
            (Printf.sprintf "device %d outcome" i)
            outcome r.Periodic.Batch.outcome
      | exception Periodic.Unsustainable sigma ->
          Alcotest.check outcome_t
            (Printf.sprintf "device %d first-cycle death" i)
            (Periodic.Dies 0) r.Periodic.Batch.outcome;
          check_float
            (Printf.sprintf "device %d fatal sigma" i)
            sigma r.Periodic.Batch.fatal_sigma)
    results

(* The per-cycle sweep must not allocate: over a censored mission the
   extra 1000 cycles of a 1010-cycle horizon cost nothing for the
   closed-form models, and only the boxed floats crossing the
   [Model.stepper_ops] closures for the PDE — a bound independent of
   the 40 Crank–Nicolson steps each cycle takes. *)
let test_periodic_sweep_allocation () =
  let cycle = Profile.constant ~current:800.0 ~duration:20.0 in
  let words_per_cycle model =
    let words max_cycles =
      let w0 = Gc.minor_words () in
      (match
         Periodic.cycles_to_death ~max_cycles ~model ~alpha:1e12 ~period:40.0
           cycle
       with
      | Periodic.Censored _ -> ()
      | Periodic.Dies _ -> Alcotest.fail "mission should be censored");
      Gc.minor_words () -. w0
    in
    (* warm-up, so one-time set-up lands in neither measurement *)
    ignore (words 10);
    let short = words 10 in
    let long = words 1010 in
    (long -. short) /. 1000.0
  in
  List.iter
    (fun (name, model) ->
      check_float (name ^ " words per cycle") 0.0 (words_per_cycle model))
    [ ("ideal", Ideal.model);
      ("rakhmatov", Rakhmatov.model ());
      ("kibam", Kibam.model ()) ];
  let pde =
    Diffusion.model
      ~params:
        (Diffusion.make_params ~nodes:8 ~dt:1.0 ~alpha:1e12 ~beta:0.273 ())
      ()
  in
  let w = words_per_cycle pde in
  Alcotest.(check bool)
    (Printf.sprintf "pde words per cycle (%.1f) <= 32" w)
    true (w <= 32.0)

(* [Batch.run] bumps each kind's named counter once per call, so a
   device's set-up words do not depend on how many named counters the
   domain's probe holds ([bump_named] rebuilds that list: bumped once
   per device, it would cost 6 words per held counter). *)
let test_periodic_setup_words () =
  let dv =
    { Periodic.model = Ideal.model; alpha = 1e9; period = 20.0;
      cycle = Profile.constant ~current:100.0 ~duration:10.0 }
  in
  let per_device () =
    let words n =
      let w0 = Gc.minor_words () in
      ignore (Periodic.Batch.run ~max_cycles:1 ~n ~device:(fun _ -> dv) ());
      Gc.minor_words () -. w0
    in
    ignore (words 64);
    (words 128 -. words 64) /. 64.0
  in
  let probe = Batsched_numeric.Probe.local () in
  let quiet = per_device () in
  let saved = probe.Batsched_numeric.Probe.named in
  probe.Batsched_numeric.Probe.named <-
    List.init 16 (fun k -> (Printf.sprintf "setup-guard/%d" k, 0)) @ saved;
  let crowded = per_device () in
  probe.Batsched_numeric.Probe.named <-
    List.filter
      (fun (k, _) -> not (String.starts_with ~prefix:"setup-guard/" k))
      probe.Batsched_numeric.Probe.named;
  check_float
    (Printf.sprintf "words per device with 16 more named counters (%.1f)"
       quiet)
    quiet crowded

(* The lane path allocates nothing per cycle: two to five PDE devices
   of one grid and cycle, each with its own beta, alpha and dt (so the
   lanes' spans end out of step, and a fifth device waits for a free
   lane), over a censored mission of 1,010 against 10 cycles. *)
let test_periodic_lane_sweep_allocation () =
  let cycle = Profile.sequential [ (800.0, 20.0); (300.0, 5.0) ] in
  List.iter
    (fun n ->
      let devices =
        Array.init n (fun i ->
            let alpha = 1e12 +. float_of_int i in
            let beta = 0.2 +. (0.1 *. float_of_int i) in
            { Periodic.model =
                Diffusion.model
                  ~params:
                    (Diffusion.make_params ~nodes:8
                       ~dt:(1.0 +. (0.3 *. float_of_int i))
                       ~alpha ~beta ())
                  ();
              alpha; period = 40.0; cycle })
      in
      let words max_cycles =
        let w0 = Gc.minor_words () in
        let r =
          Periodic.Batch.run ~max_cycles ~n ~device:(fun i -> devices.(i)) ()
        in
        let w = Gc.minor_words () -. w0 in
        Array.iter
          (fun (r : Periodic.Batch.result) ->
            Alcotest.check outcome_t "censored" (Periodic.Censored max_cycles)
              r.Periodic.Batch.outcome)
          r;
        w
      in
      ignore (words 10);
      check_float
        (Printf.sprintf "%d pde devices: words per cycle" n)
        0.0
        ((words 1010 -. words 10) /. 1000.0))
    [ 2; 3; 4; 5 ]

(* --- Cell --- *)

let test_cell_presets () =
  check_float "itsy alpha" 40375.0 Cell.itsy.Cell.alpha;
  check_float "itsy beta" 0.273 Cell.itsy.Cell.beta;
  check_close 1e-9 "mAh" (40375.0 /. 60.0) (Cell.rated_capacity_mah Cell.itsy)

let test_cell_validation () =
  Alcotest.check_raises "bad alpha"
    (Invalid_argument "Cell.make: alpha must be positive") (fun () ->
      ignore (Cell.make ~label:"x" ~alpha:0.0 ~beta:1.0))

(* --- Curves --- *)

let test_curves_rate_capacity_shape () =
  let pts =
    Curves.rate_capacity ~cell:Cell.itsy ~currents:[ 100.0; 400.0; 1600.0 ]
  in
  match pts with
  | [ a; b; c ] ->
      Alcotest.(check bool) "falling efficiency" true
        (a.Curves.efficiency > b.Curves.efficiency
         && b.Curves.efficiency > c.Curves.efficiency);
      Alcotest.(check bool) "bounded" true
        (a.Curves.efficiency <= 1.0 && c.Curves.efficiency > 0.0)
  | _ -> Alcotest.fail "expected three points"

let test_curves_recovery_shape () =
  let pts =
    Curves.recovery ~cell:Cell.itsy ~current:800.0 ~burst:20.0
      ~idles:[ 0.0; 10.0; 60.0 ]
  in
  match pts with
  | [ zero; ten; sixty ] ->
      check_float "no idle no recovery" 0.0 zero.Curves.recovered;
      Alcotest.(check bool) "monotone recovery" true
        (ten.Curves.recovered > 0.0
         && sixty.Curves.recovered > ten.Curves.recovered)
  | _ -> Alcotest.fail "expected three points"

let test_curves_sigma_curve_monotone () =
  let model = Rakhmatov.model () in
  let p = Profile.constant ~current:300.0 ~duration:50.0 in
  let c = Curves.sigma_curve ~model p ~n:20 in
  let pts = Batsched_numeric.Interp.points c in
  let rec check = function
    | (_, a) :: ((_, b) :: _ as rest) -> a <= b +. 1e-6 && check rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone" true (check pts)

let test_curves_ordering_gap () =
  let tasks = [ (900.0, 5.0); (100.0, 5.0); (500.0, 5.0) ] in
  let dec, inc = Curves.ordering_gap ~cell:Cell.itsy tasks in
  Alcotest.(check bool) "decreasing no worse" true (dec <= inc)

(* --- qcheck properties --- *)

let gen_loads =
  QCheck.(
    list_of_size Gen.(int_range 1 8)
      (pair (float_range 10.0 1000.0) (float_range 0.5 30.0)))

let prop_sigma_monotone_in_time =
  (* monotonicity holds under constant load; with varying load sigma can
     dip after heavy intervals (recovery) — see the dedicated dip test *)
  QCheck.Test.make ~count:100
    ~name:"RV sigma is non-decreasing in T under constant load"
    QCheck.(pair (float_range 10.0 1000.0) (float_range 1.0 100.0))
    (fun (current, duration) ->
      let p = Profile.constant ~current ~duration in
      let s1 = Rakhmatov.sigma p ~at:(duration /. 2.0) in
      let s2 = Rakhmatov.sigma p ~at:duration in
      s1 <= s2 +. 1e-6)

let prop_sigma_at_least_ideal_at_end =
  QCheck.Test.make ~count:100
    ~name:"RV sigma at completion >= coulomb count" gen_loads (fun loads ->
      let p = Profile.sequential loads in
      Model.sigma_end (Rakhmatov.model ()) p >= Profile.total_charge p -. 1e-6)

let prop_decreasing_order_never_worse =
  QCheck.Test.make ~count:100
    ~name:"decreasing-current order never worse than increasing" gen_loads
    (fun loads ->
      let dec, inc = Curves.ordering_gap ~cell:Cell.itsy loads in
      dec <= inc +. 1e-6)

let prop_idle_never_hurts =
  QCheck.Test.make ~count:100 ~name:"inserting idle never raises sigma"
    QCheck.(pair gen_loads (float_range 0.1 60.0))
    (fun (loads, idle) ->
      QCheck.assume (List.length loads >= 2);
      let p = Profile.sequential loads in
      let last_start =
        match List.rev (Profile.intervals p) with
        | last :: _ -> last.Profile.start
        | [] -> 0.0
      in
      let q = Profile.with_idle p ~after:last_start ~idle in
      let model = Rakhmatov.model () in
      Model.sigma_end model q <= Model.sigma_end model p +. 1e-6)

let prop_sigma_matches_reference =
  (* the cached/incremental evaluator against the truncate-and-sum
     seed implementation, observed at several instants including ones
     that clip a straddling interval *)
  QCheck.Test.make ~count:200 ~name:"fast RV sigma agrees with reference"
    QCheck.(pair gen_loads (float_range 0.0 1.0))
    (fun (loads, frac) ->
      let p = Profile.sequential loads in
      let ends = Profile.length p in
      let ats = [ frac *. ends; ends; ends +. 10.0 ] in
      List.for_all
        (fun at ->
          let fast = Rakhmatov.sigma p ~at in
          let slow = Oracles.Rakhmatov.sigma_reference p ~at in
          Float.abs (fast -. slow) <= 1e-9 *. (1.0 +. Float.abs slow))
        ats)

let prop_sigma_matches_reference_with_gaps =
  QCheck.Test.make ~count:100
    ~name:"fast RV sigma agrees with reference across idle gaps"
    QCheck.(triple gen_loads (float_range 0.1 60.0) (float_range 0.0 1.0))
    (fun (loads, idle, frac) ->
      QCheck.assume (List.length loads >= 2);
      let p = Profile.sequential loads in
      let q = Profile.with_idle p ~after:(frac *. Profile.length p) ~idle in
      let at = Profile.length q in
      Float.abs (Rakhmatov.sigma q ~at -. Oracles.Rakhmatov.sigma_reference q ~at)
      <= 1e-9 *. (1.0 +. Oracles.Rakhmatov.sigma_reference q ~at))

(* --- Metamorphic: sigma is linear in the currents (DESIGN.md §6) --- *)

let sigma_doubled model loads =
  let double = List.map (fun (c, d) -> (2.0 *. c, d)) loads in
  ( Model.sigma_end model (Profile.sequential loads),
    Model.sigma_end model (Profile.sequential double) )

(* Ideal and RV form sigma from currents by sums and products with
   current-independent factors only, and doubling commutes with
   rounding: exact. *)
let prop_sigma_linear_exact name model =
  QCheck.Test.make ~count:300
    ~name:(Printf.sprintf "%s: doubling currents doubles sigma bit for bit" name)
    gen_loads
    (fun loads ->
      let s, s2 = sigma_doubled model loads in
      Int64.equal (Int64.bits_of_float s2) (Int64.bits_of_float (2.0 *. s)))

(* KiBaM and the PDE subtract a state that starts at alpha, so every
   step rounds quantities of size alpha: allow 8 eps * alpha per step
   ([steps loads] counts KiBaM intervals or Crank–Nicolson steps). *)
let prop_sigma_linear_within ?(count = 300) name model ~alpha ~steps =
  QCheck.Test.make ~count
    ~name:
      (Printf.sprintf "%s: doubling currents doubles sigma within ulps of alpha"
         name)
    gen_loads
    (fun loads ->
      let s, s2 = sigma_doubled model loads in
      Float.abs (s2 -. (2.0 *. s))
      <= 8.0 *. float_of_int (steps loads) *. epsilon_float *. alpha)

let prop_sigma_linear_ideal = prop_sigma_linear_exact "ideal" Ideal.model

let prop_sigma_linear_rakhmatov =
  prop_sigma_linear_exact "rakhmatov" (Rakhmatov.model ())

let prop_sigma_linear_kibam =
  prop_sigma_linear_within "kibam" (Kibam.model ())
    ~alpha:Kibam.default_params.Kibam.capacity
    ~steps:(fun loads -> List.length loads + 1)

let prop_sigma_linear_diffusion =
  let p = Diffusion.default_params in
  prop_sigma_linear_within ~count:100 "diffusion" (Diffusion.model ())
    ~alpha:p.Diffusion.alpha
    ~steps:(fun loads ->
      List.fold_left
        (fun acc (_, d) -> acc + Stdlib.max 1 (int_of_float (Float.ceil (d /. p.Diffusion.dt))))
        0 loads)

(* --- Diffusion stepper vs the textbook Crank–Nicolson step --- *)

(* One constant-current span the textbook way: per step, form the
   explicit half, fill the full tridiagonal system (I - dt/2 A), solve
   it with [Tridiag.solve_into] and copy the solution back.  The
   stepper factors the matrix once per span and fuses the step into one
   pass; it must reproduce this arithmetic exactly. *)
let textbook_advance ~dt_max ~dee ~dx ~current u span =
  if span > 0.0 then begin
    let n = Array.length u in
    let steps = Stdlib.max 1 (int_of_float (Float.ceil (span /. dt_max))) in
    let dt = span /. float_of_int steps in
    let v = Array.make n 0.0 in
    let diag = Array.make n 0.0 in
    let lower = Array.make (n - 1) 0.0 in
    let upper = Array.make (n - 1) 0.0 in
    let cw = Array.make (n - 1) 0.0 in
    let dw = Array.make n 0.0 in
    let out = Array.make n 0.0 in
    for _ = 1 to steps do
      let r = dee /. (dx *. dx) in
      let half = 0.5 *. dt in
      v.(0) <-
        u.(0) +. (half *. ((2.0 *. r *. u.(1)) -. (2.0 *. r *. u.(0))))
        -. (dt *. 2.0 *. current /. dx);
      for i = 1 to n - 2 do
        v.(i) <-
          u.(i)
          +. (half *. r *. (u.(i - 1) -. (2.0 *. u.(i)) +. u.(i + 1)))
      done;
      v.(n - 1) <-
        u.(n - 1)
        +. (half *. ((2.0 *. r *. u.(n - 2)) -. (2.0 *. r *. u.(n - 1))));
      Array.fill diag 0 n (1.0 +. (dt *. r));
      Array.fill lower 0 (n - 1) (-.half *. r);
      Array.fill upper 0 (n - 1) (-.half *. r);
      upper.(0) <- -.dt *. r;
      lower.(n - 2) <- -.dt *. r;
      Oracles.Tridiag.solve_into ~lower ~diag ~upper ~rhs:v ~cw ~dw
        ~out;
      Array.blit out 0 u 0 n
    done
  end

(* Random grids (8-64 nodes, dt 0.01-2, random beta and alpha) driven
   through 1-8 spans each: currents include 0, and spans are 0, shorter
   than dt, exact multiples of dt, or arbitrary.  Every node must match
   bit for bit after every span. *)
let prop_diffusion_stepper_matches_textbook =
  QCheck.Test.make ~count:300
    ~name:"diffusion stepper is bit-identical to the textbook CN step"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Batsched_numeric.Rng.create seed in
      let uniform lo hi = lo +. Batsched_numeric.Rng.float rng (hi -. lo) in
      let nodes = 8 + Batsched_numeric.Rng.int rng 57 in
      let dt = uniform 0.01 2.0 in
      let params =
        Diffusion.make_params ~nodes ~dt ~alpha:(uniform 100.0 50_000.0)
          ~beta:(uniform 0.05 1.5) ()
      in
      let dx = 1.0 /. float_of_int (nodes - 1) in
      let dee =
        params.Diffusion.beta *. params.Diffusion.beta
        /. (Float.pi *. Float.pi)
      in
      let ops = (Diffusion.stepper params).Model.fresh () in
      let u = Array.make nodes 0.0 in
      let want = Array.make nodes params.Diffusion.alpha in
      ops.Model.start u;
      let same () =
        Array.for_all2
          (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
          u want
      in
      let spans = 1 + Batsched_numeric.Rng.int rng 8 in
      let ok = ref (same ()) in
      for _ = 1 to spans do
        let current =
          if Batsched_numeric.Rng.int rng 3 = 0 then 0.0 else uniform 0.0 900.0
        in
        let span =
          match Batsched_numeric.Rng.int rng 4 with
          | 0 -> 0.0
          | 1 -> uniform 0.0 dt
          | 2 -> float_of_int (1 + Batsched_numeric.Rng.int rng 5) *. dt
          | _ -> uniform 0.0 (10.0 *. dt)
        in
        ops.Model.advance u ~current ~duration:span;
        textbook_advance ~dt_max:dt ~dee ~dx ~current want span;
        ok := !ok && same ()
      done;
      !ok)

(* The lane group against the one-device [advance]: four devices on one
   random grid (8-64 nodes), each with its own beta, alpha and dt, play
   their own 1-8 spans (currents including 0; spans of 0, below one dt,
   exact multiples of dt, or up to 40 dt), each lane starting its next
   span when its previous one's steps are done, as Periodic's lane
   scheduler does, so the lanes' step counts differ.  After every span,
   its lane must hold the one-device state and observe its sigma, bit
   for bit.  A zero span starts nothing on a lane and leaves the
   one-device state alone. *)
let prop_diffusion_lanes_match_advance =
  QCheck.Test.make ~count:200
    ~name:"diffusion lanes are bit-identical to the one-device advance"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Batsched_numeric.Rng.create seed in
      let uniform lo hi = lo +. Batsched_numeric.Rng.float rng (hi -. lo) in
      let int k = Batsched_numeric.Rng.int rng k in
      let bits = Int64.bits_of_float in
      let nodes = 8 + int 57 in
      let w = Model.lane_count in
      let devices =
        Array.init w (fun _ ->
            let dt = uniform 0.01 2.0 in
            let st =
              Diffusion.stepper
                (Diffusion.make_params ~nodes ~dt
                   ~alpha:(uniform 100.0 50_000.0) ~beta:(uniform 0.05 1.5) ())
            in
            let ops = st.Model.fresh () in
            let u = Array.make nodes 0.0 in
            ops.Model.start u;
            let spans =
              List.init (1 + int 8) (fun _ ->
                  let current = if int 3 = 0 then 0.0 else uniform 0.0 900.0 in
                  let span =
                    match int 4 with
                    | 0 -> 0.0
                    | 1 -> uniform 0.0 dt
                    | 2 -> float_of_int (1 + int 5) *. dt
                    | _ -> uniform 0.0 (40.0 *. dt)
                  in
                  (current, span))
            in
            (st, ops, u, ref spans))
      in
      let st0, _, _, _ = devices.(0) in
      let g = st0.Model.lanes.Model.group () in
      Array.iteri
        (fun l (st, _, _, _) -> g.Model.load l st.Model.lanes.Model.params)
        devices;
      let ok = ref true in
      let check l =
        let _, ops, u, _ = devices.(l) in
        g.Model.observe l;
        let same = ref (bits (ops.Model.observe u) = bits g.Model.sigma.(l)) in
        Array.iteri
          (fun x v -> same := !same && bits v = bits g.Model.state.((x * w) + l))
          u;
        ok := !ok && !same
      in
      let left = Array.make w 0 in
      let rec start l =
        let _, ops, u, spans = devices.(l) in
        match !spans with
        | [] -> ()
        | (current, span) :: rest ->
            spans := rest;
            ops.Model.advance u ~current ~duration:span;
            if span > 0.0 then begin
              g.Model.current.(l) <- current;
              g.Model.duration.(l) <- span;
              left.(l) <- g.Model.span l
            end
            else begin
              check l;
              start l
            end
      in
      for l = 0 to w - 1 do
        check l;
        start l
      done;
      while Array.exists (fun s -> s > 0) left do
        let m =
          Array.fold_left (fun m s -> if s > 0 then min m s else m) max_int left
        in
        g.Model.run m;
        for l = 0 to w - 1 do
          if left.(l) > 0 then begin
            left.(l) <- left.(l) - m;
            if left.(l) = 0 then begin
              check l;
              start l
            end
          end
        done
      done;
      !ok)

(* The lane path of [Batch.run] against the one-device path and the
   quadratic oracle, on populations of 0, 1, 3, 4, 5, 23 and 257
   devices.  Each mixes ideal and RV devices with PDE devices on 8- and
   16-node grids, each PDE device with its own beta, dt and cycle (some
   with an idle gap inside, some empty), so lanes start and end spans
   out of step and take new devices at different times; budgets of
   0.4-8 cycles' charge against a 5-cycle horizon give deaths in cycle
   0, later deaths and censored devices.
   Every device's outcome and fatal-sigma bits must equal those of
   [Batch.run] on that device alone (which takes the one-device path),
   and for a PDE device those of the oracle too. *)
let prop_periodic_lanes_match =
  QCheck.Test.make ~count:6
    ~name:"periodic lane path matches one-device path and oracle"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Batsched_numeric.Rng.create seed in
      let uniform lo hi = lo +. Batsched_numeric.Rng.float rng (hi -. lo) in
      let int k = Batsched_numeric.Rng.int rng k in
      let max_cycles = 5 in
      let device _ =
        let loads =
          Profile.sequential
            (List.init (1 + int 3) (fun _ ->
                 (uniform 50.0 900.0, uniform 0.5 4.0)))
        in
        let cycle =
          match (int 8, Profile.intervals loads) with
          | 0, _ -> Profile.empty
          | (1 | 2 | 3), first :: _ :: _ ->
              Profile.with_idle loads
                ~after:(first.Profile.start +. first.Profile.duration)
                ~idle:(uniform 0.1 3.0)
          | _ -> loads
        in
        let period = Float.max 1.0 (Profile.length cycle *. uniform 1.0 2.0) in
        let alpha =
          Float.max 1.0 (Profile.total_charge cycle *. uniform 0.4 8.0)
        in
        let model =
          match int 4 with
          | 0 -> Ideal.model
          | 1 -> Rakhmatov.model ()
          | _ ->
              Diffusion.model
                ~params:
                  (Diffusion.make_params
                     ~nodes:(if int 2 = 0 then 8 else 16)
                     ~dt:(uniform 0.5 2.0) ~alpha ~beta:(uniform 0.2 0.6) ())
                ()
        in
        { Periodic.model; alpha; period; cycle }
      in
      let same (a : Periodic.Batch.result) (b : Periodic.Batch.result) =
        a.Periodic.Batch.outcome = b.Periodic.Batch.outcome
        && Int64.equal
             (Int64.bits_of_float a.Periodic.Batch.fatal_sigma)
             (Int64.bits_of_float b.Periodic.Batch.fatal_sigma)
      in
      List.for_all
        (fun n ->
          let devices = Array.init n device in
          let got =
            Periodic.Batch.run ~max_cycles ~n ~device:(fun i -> devices.(i)) ()
          in
          Array.length got = n
          && Array.for_all2
               (fun (d : Periodic.device) r ->
                 same r
                   (Periodic.Batch.run ~max_cycles ~n:1 ~device:(fun _ -> d) ()).(0)
                 && (match d.Periodic.model.Model.kernel with
                    | Model.Channels _ -> true
                    | Model.Stepper _ ->
                        same r (Oracles.Periodic.result_reference ~max_cycles d)))
               devices got)
        [ 0; 1; 3; 4; 5; 23; 257 ])

(* --- Periodic fast kernel vs quadratic oracle --- *)

(* Random mission: a 1-4 interval cycle (optionally with an idle gap
   inside), a period leaving factor-1 headroom, and a budget expressed
   in cycles' worth of charge so deaths land within the horizon. *)
let gen_mission =
  QCheck.(
    quad
      (list_of_size Gen.(int_range 1 4)
         (pair (float_range 50.0 900.0) (float_range 1.0 20.0)))
      (float_range 0.0 10.0)   (* idle gap inside the cycle *)
      (float_range 1.0 2.5)    (* period / cycle-length factor *)
      (float_range 0.8 25.0))  (* alpha in charge-per-cycle units *)

let mission_of (loads, idle, factor, worth) =
  let p = Profile.sequential loads in
  let cycle =
    match Profile.intervals p with
    | first :: _ :: _ when idle > 0.01 ->
        Profile.with_idle p
          ~after:(first.Profile.start +. first.Profile.duration)
          ~idle
    | _ -> p
  in
  let period = Profile.length cycle *. factor in
  let alpha = Profile.total_charge cycle *. worth in
  (cycle, period, alpha)

let endured f ~max_cycles ~model ~alpha ~period cycle =
  match f ?max_cycles:(Some max_cycles) ~model ~alpha ~period cycle with
  | o -> Periodic.cycles o
  | exception Periodic.Unsustainable _ -> 0

(* The fast kernel and the oracle compute the same mathematical sigma
   with different float accumulation, so at probes landing within a few
   ulps of alpha the death cycle may legitimately differ.  Instead of a
   point comparison, bracket: lifetime is monotone in alpha, so the
   fast result must sit between the oracle's answers at alpha shrunk
   and grown by a 1e-6 relative margin — and on the (overwhelmingly
   common) draws where no probe is that close, the bracket is tight and
   the comparison exact. *)
let prop_periodic_matches_oracle ?(count = 40) ?(max_cycles = 25) name model =
  QCheck.Test.make ~count
    ~name:(Printf.sprintf "periodic fast kernel matches oracle (%s)" name)
    gen_mission
    (fun draw ->
      let cycle, period, alpha = mission_of draw in
      let fast =
        endured Periodic.cycles_to_death ~max_cycles ~model ~alpha ~period
          cycle
      in
      let lo =
        endured Oracles.Periodic.cycles_to_death_reference ~max_cycles ~model
          ~alpha:(alpha *. (1.0 -. 1e-6))
          ~period cycle
      in
      let hi =
        endured Oracles.Periodic.cycles_to_death_reference ~max_cycles ~model
          ~alpha:(alpha *. (1.0 +. 1e-6))
          ~period cycle
      in
      lo <= fast && fast <= hi)

let prop_periodic_oracle_ideal =
  prop_periodic_matches_oracle ~count:60 "ideal" Ideal.model

let prop_periodic_oracle_peukert =
  prop_periodic_matches_oracle ~count:60 "peukert" (Peukert.model ())

let prop_periodic_oracle_rakhmatov =
  prop_periodic_matches_oracle ~count:30 "rakhmatov" (Rakhmatov.model ())

let prop_periodic_oracle_kibam =
  prop_periodic_matches_oracle ~count:40 "kibam" (Kibam.model ())

(* The carried-stepper path replays the oracle's arithmetic exactly
   (same run_to targets, same spans), so for the PDE the two paths are
   bit-identical — no bracket needed. *)
let prop_periodic_oracle_diffusion_exact =
  let params = Diffusion.make_params ~nodes:8 ~dt:1.0 ~alpha:1.0 ~beta:0.273 () in
  QCheck.Test.make ~count:15
    ~name:"periodic carried stepper is bit-identical to oracle (diffusion)"
    gen_mission
    (fun draw ->
      let cycle, period, alpha = mission_of draw in
      let params = { params with Diffusion.alpha } in
      let model = Diffusion.model ~params () in
      let run f =
        match f ?max_cycles:(Some 10) ~model ~alpha ~period cycle with
        | o -> (Periodic.cycles o, Float.nan)
        | exception Periodic.Unsustainable s -> (0, s)
      in
      let fast, fs = run Periodic.cycles_to_death in
      let slow, ss = run Oracles.Periodic.cycles_to_death_reference in
      fast = slow
      && Int64.equal (Int64.bits_of_float fs) (Int64.bits_of_float ss))

let test_sigma_reference_single_interval () =
  let p = Profile.constant ~current:500.0 ~duration:10.0 in
  (* a = 0 edge: observation instant coincides with the interval end *)
  check_float "at end"
    (Oracles.Rakhmatov.sigma_reference p ~at:10.0)
    (Rakhmatov.sigma p ~at:10.0);
  check_float "mid-interval clip"
    (Oracles.Rakhmatov.sigma_reference p ~at:4.0)
    (Rakhmatov.sigma p ~at:4.0);
  check_float "empty prefix" 0.0 (Rakhmatov.sigma p ~at:0.0)

let test_profile_fold_until_matches_truncate () =
  let p = Profile.sequential [ (100.0, 2.0); (200.0, 3.0); (50.0, 4.0) ] in
  List.iter
    (fun at ->
      let folded =
        List.rev
          (Profile.fold_until p ~at ~init:[]
             ~f:(fun acc ~start ~duration ~current ->
               (start, duration, current) :: acc))
      in
      let copied =
        List.map
          (fun iv -> (iv.Profile.start, iv.Profile.duration, iv.Profile.current))
          (Profile.intervals (Profile.truncate p ~at))
      in
      Alcotest.(check (list (triple (float 1e-12) (float 1e-12) (float 1e-12))))
        (Printf.sprintf "at %.1f" at) copied folded)
    [ 0.0; 1.0; 2.0; 3.5; 9.0; 20.0 ]

let test_profile_sequential_fn_matches_sequential () =
  let pairs = [ (100.0, 2.0); (200.0, 0.0); (50.0, 4.0) ] in
  let arr = Array.of_list pairs in
  let a = Profile.sequential pairs in
  let b = Profile.sequential_fn ~n:(Array.length arr) (fun i -> arr.(i)) in
  Alcotest.(check int) "count" (Profile.num_intervals a) (Profile.num_intervals b);
  check_float "length" (Profile.length a) (Profile.length b);
  check_float "charge" (Profile.total_charge a) (Profile.total_charge b)

(* --- Delta: incremental sigma evaluation --- *)

module Probe = Batsched_numeric.Probe

(* Delta agrees with the full path within 1e-9 relative, not absolute:
   the two accumulate the recovery times in opposite directions (see
   delta.mli), same convention as the fast-vs-reference sigma tests
   above. *)
let check_rel name want got =
  let ok = Float.abs (got -. want) <= 1e-9 *. (1.0 +. Float.abs want) in
  if not ok then
    Alcotest.failf "%s: got %.17g, want %.17g (rel %.3g)" name got want
      (Float.abs (got -. want) /. (1.0 +. Float.abs want))

let rv = Rakhmatov.model ()

let full_eval model points =
  let p = Profile.sequential points in
  (Model.sigma_end model p, Profile.length p)

let delta_of model points =
  let arr = Array.of_list points in
  Delta.init model ~n:(Array.length arr) ~point:(fun i -> arr.(i))

let check_against_full model d points =
  let sigma, finish = full_eval model points in
  check_rel "sigma" sigma (Delta.sigma d);
  check_rel "finish" finish (Delta.finish d)

let base_points =
  [ (400.0, 2.0); (150.0, 4.0); (800.0, 1.0); (250.0, 3.0); (90.0, 6.0) ]

let swap_list l k =
  List.mapi
    (fun i x ->
      if i = k then List.nth l (k + 1)
      else if i = k + 1 then List.nth l k
      else x)
    l

let set_list l k v = List.mapi (fun i x -> if i = k then v else x) l

let test_delta_load_matches_full () =
  List.iter
    (fun model -> check_against_full model (delta_of model base_points) base_points)
    [ rv; Ideal.model; Peukert.model (); Kibam.model () ]

let test_delta_swap_matches_full () =
  let d = delta_of rv base_points in
  (* candidate = oracle of the swapped list; committed state unchanged
     until commit *)
  let want_sigma, want_finish = full_eval rv (swap_list base_points 1) in
  let got_sigma, got_finish = Delta.try_swap d 1 in
  check_rel "candidate sigma" want_sigma got_sigma;
  check_rel "candidate finish" want_finish got_finish;
  Delta.discard d;
  check_against_full rv d base_points;
  ignore (Delta.try_swap d 1);
  Delta.commit d;
  check_against_full rv d (swap_list base_points 1)

let test_delta_swap_boundaries () =
  let n = List.length base_points in
  List.iter
    (fun k ->
      let d = delta_of rv base_points in
      ignore (Delta.try_swap d k);
      Delta.commit d;
      check_against_full rv d (swap_list base_points k))
    [ 0; n - 2 ]

let test_delta_set_boundaries () =
  let n = List.length base_points in
  List.iter
    (fun k ->
      let d = delta_of rv base_points in
      let v = (333.0, 2.5) in
      let want_sigma, want_finish = full_eval rv (set_list base_points k v) in
      let got_sigma, got_finish =
        Delta.try_set d k ~current:(fst v) ~duration:(snd v)
      in
      check_rel "candidate sigma" want_sigma got_sigma;
      check_rel "candidate finish" want_finish got_finish;
      Delta.commit d;
      check_against_full rv d (set_list base_points k v))
    [ 0; n - 1 ]

let test_delta_swap_after_set () =
  let d = delta_of rv base_points in
  let points = set_list base_points 3 (500.0, 0.5) in
  ignore (Delta.try_set d 3 ~current:500.0 ~duration:0.5);
  Delta.commit d;
  let points' = swap_list points 2 in
  ignore (Delta.try_swap d 2);
  Delta.commit d;
  check_against_full rv d points'

let test_delta_zero_duration () =
  (* zero-duration positions are kept with an exactly-zero term, so
     sigma matches the profile path, which drops them *)
  let points = [ (400.0, 2.0); (999.0, 0.0); (150.0, 4.0) ] in
  let d = delta_of rv points in
  check_against_full rv d points;
  (* shrinking a position to zero duration and back *)
  let d = delta_of rv base_points in
  ignore (Delta.try_set d 2 ~current:800.0 ~duration:0.0);
  Delta.commit d;
  check_against_full rv d (set_list base_points 2 (800.0, 0.0));
  ignore (Delta.try_set d 2 ~current:800.0 ~duration:1.0);
  Delta.commit d;
  check_against_full rv d base_points

let test_delta_single_interval () =
  let points = [ (500.0, 3.0) ] in
  let d = delta_of rv points in
  check_against_full rv d points;
  Alcotest.check_raises "no swap on n=1"
    (Invalid_argument "Delta.try_swap: position out of range") (fun () ->
      ignore (Delta.try_swap d 0));
  ignore (Delta.try_set d 0 ~current:200.0 ~duration:7.0);
  Delta.commit d;
  check_against_full rv d [ (200.0, 7.0) ]

let test_delta_pending_protocol () =
  let d = delta_of rv base_points in
  Alcotest.check_raises "commit w/o move"
    (Invalid_argument "Delta.commit: no pending move") (fun () ->
      Delta.commit d);
  Alcotest.check_raises "discard w/o move"
    (Invalid_argument "Delta.discard: no pending move") (fun () ->
      Delta.discard d);
  ignore (Delta.try_swap d 0);
  Alcotest.check_raises "second try while pending"
    (Invalid_argument "Delta.try_set: uncommitted pending move") (fun () ->
      ignore (Delta.try_set d 1 ~current:1.0 ~duration:1.0));
  Delta.discard d

let test_delta_of_profile_rejects_gaps () =
  let gapped =
    Profile.with_idle
      (Profile.sequential [ (100.0, 2.0); (200.0, 3.0) ])
      ~after:2.0 ~idle:1.0
  in
  Alcotest.check_raises "idle gaps"
    (Invalid_argument "Delta.of_profile: profile has idle gaps") (fun () ->
      ignore (Delta.of_profile rv gapped));
  let ok = Profile.sequential base_points in
  check_against_full rv (Delta.of_profile rv ok) base_points

let test_delta_kibam_incremental_no_fallback () =
  (* kibam's closed-form channels cost a burst of swap/set candidates
     that track the full evaluation, with zero full evals booked *)
  let model = Kibam.model () in
  let c0 = (Probe.totals ()).Probe.delta_full_evals in
  let d = delta_of model base_points in
  ignore (Delta.try_swap d 1);
  Delta.commit d;
  ignore (Delta.try_set d 0 ~current:50.0 ~duration:2.0);
  Delta.commit d;
  ignore (Delta.try_swap d 2);
  Delta.discard d;
  check_against_full model d
    (set_list (swap_list base_points 1) 0 (50.0, 2.0));
  Alcotest.(check int) "no full evals" c0
    (Probe.totals ()).Probe.delta_full_evals

let coarse_diffusion =
  (* 8 nodes, 1-minute steps: the checkpointing logic under test is
     grid-independent, and the default grid would dominate test time *)
  Diffusion.model
    ~params:(Diffusion.make_params ~nodes:8 ~dt:1.0 ~alpha:40375.0 ~beta:0.273 ())
    ()

let test_delta_checkpoint_counters () =
  (* a stepper-only model goes through the checkpoint path: candidates
     restore a snapshot and re-advance the suffix, and commits
     invalidate downstream snapshots — all visible in the probe *)
  let c0 = Probe.totals () in
  let points = List.init 16 (fun i -> (100.0 +. (10.0 *. float_of_int i), 1.5)) in
  let d = delta_of coarse_diffusion points in
  ignore (Delta.try_swap d 9);
  Delta.discard d;
  ignore (Delta.try_swap d 9);
  Delta.commit d;
  check_against_full coarse_diffusion d (swap_list points 9);
  let c1 = Probe.totals () in
  Alcotest.(check bool) "restores counted" true
    (c1.Probe.delta_ck_restores > c0.Probe.delta_ck_restores);
  Alcotest.(check bool) "advances counted" true
    (c1.Probe.delta_ck_advances > c0.Probe.delta_ck_advances);
  Alcotest.(check int) "no uncounted fallback" c0.Probe.delta_full_evals
    c1.Probe.delta_full_evals

let test_delta_swap_term_evals_constant () =
  (* the headline O(1) claim: a swap costs at most 2 term evaluations
     under the RV model, independent of n — and none at all for a
     tail-insensitive model *)
  let points = List.init 40 (fun i -> (100.0 +. float_of_int i, 1.0)) in
  let d = delta_of rv points in
  let c0 = (Probe.totals ()).Probe.delta_terms in
  for k = 0 to 38 do
    ignore (Delta.try_swap d k);
    Delta.commit d
  done;
  let per_swap = (Probe.totals ()).Probe.delta_terms - c0 in
  Alcotest.(check int) "2 terms per swap" (2 * 39) per_swap;
  let d = delta_of Ideal.model points in
  let c0 = (Probe.totals ()).Probe.delta_terms in
  let s0 = Delta.sigma d in
  ignore (Delta.try_swap d 10);
  Delta.commit d;
  Alcotest.(check int) "0 terms for ideal" c0
    (Probe.totals ()).Probe.delta_terms;
  check_float "ideal sigma invariant under swap" s0 (Delta.sigma d)

let test_delta_suffix_cache_across_makespans () =
  (* the suffix-time cache key: stretching the *first* interval leaves
     every later interval's (I, D, tail) key intact, so re-costing the
     stretched schedule misses only on the changed interval — the old
     at-keyed cache missed on all of them.  A beta unique to this test
     isolates it from entries cached by other tests. *)
  let model = Rakhmatov.model ~beta:0.311 () in
  let p1 = Profile.sequential base_points in
  ignore (Model.sigma_end model p1);
  let c0 = (Probe.totals ()).Probe.contrib_misses in
  let p2 = Profile.sequential (set_list base_points 0 (400.0, 9.0)) in
  ignore (Model.sigma_end model p2);
  let misses = (Probe.totals ()).Probe.contrib_misses - c0 in
  Alcotest.(check int) "one miss despite new makespan" 1 misses

let test_delta_refresh_noop () =
  let d = delta_of rv base_points in
  for _ = 1 to 100 do
    ignore (Delta.try_swap d 1);
    Delta.commit d;
    ignore (Delta.try_swap d 1);
    Delta.commit d
  done;
  (* 200 commits crossed several automatic re-sum boundaries; a manual
     refresh must not move the value either *)
  let s = Delta.sigma d in
  Delta.refresh d;
  check_float "refresh stable" s (Delta.sigma d);
  check_against_full rv d base_points

let delta_tests =
  [ Alcotest.test_case "load matches full (all models)" `Quick test_delta_load_matches_full;
    Alcotest.test_case "swap matches full" `Quick test_delta_swap_matches_full;
    Alcotest.test_case "swap at 0 and n-2" `Quick test_delta_swap_boundaries;
    Alcotest.test_case "set at 0 and n-1" `Quick test_delta_set_boundaries;
    Alcotest.test_case "swap after set" `Quick test_delta_swap_after_set;
    Alcotest.test_case "zero-duration positions" `Quick test_delta_zero_duration;
    Alcotest.test_case "single interval" `Quick test_delta_single_interval;
    Alcotest.test_case "pending protocol" `Quick test_delta_pending_protocol;
    Alcotest.test_case "of_profile rejects gaps" `Quick test_delta_of_profile_rejects_gaps;
    Alcotest.test_case "kibam incremental, no fallback" `Quick test_delta_kibam_incremental_no_fallback;
    Alcotest.test_case "checkpoint counters" `Quick test_delta_checkpoint_counters;
    Alcotest.test_case "O(1) swap term evals" `Quick test_delta_swap_term_evals_constant;
    Alcotest.test_case "suffix cache across makespans" `Quick test_delta_suffix_cache_across_makespans;
    Alcotest.test_case "refresh after many commits" `Quick test_delta_refresh_noop ]

(* --- Model views: the kernel each shipped model carries, and the
   Model.mli contract tying it back to [sigma] --- *)

let shipped_models =
  [ Ideal.model; Peukert.model (); rv; Kibam.model (); coarse_diffusion ]

let test_model_views_shipped () =
  (* (tail sensitivity of the channel terms, derived from the channel
     count as Delta derives it; is a stepper; channel count) *)
  let views m =
    match m.Model.kernel with
    | Model.Channels ch ->
        let n = Array.length ch.Model.rates in
        (Some (n > 0), false, Some n)
    | Model.Stepper _ -> (None, true, None)
  in
  let want =
    [ ("ideal", (Some false, false, Some 0));
      ("peukert", (Some false, false, Some 0));
      ("rakhmatov", (Some true, false, Some Batsched_numeric.Series.default_terms));
      ("kibam", (Some true, false, Some 1));
      ("diffusion-pde", (None, true, None)) ]
  in
  let pp = Alcotest.(triple (option bool) bool (option int)) in
  List.iter2
    (fun m (name, w) ->
      Alcotest.(check string) "name" name m.Model.name;
      Alcotest.check pp name w (views m))
    shipped_models want

let test_model_views_incremental_sums () =
  (* sum of per-interval terms at their suffix tails = sigma at the
     makespan; a zero-duration term is exactly zero *)
  List.iter
    (fun m ->
      match m.Model.kernel with
      | Model.Stepper _ -> ()
      | Model.Channels ch ->
          let rec terms acc = function
            | [] -> (acc, 0.0)
            | (current, duration) :: rest ->
                let acc, tail = terms acc rest in
                (acc +. ch.Model.term ~current ~duration ~tail, tail +. duration)
          in
          let got, _ = terms 0.0 base_points in
          check_rel m.Model.name (fst (full_eval m base_points)) got;
          Alcotest.(check (float 0.0)) (m.Model.name ^ " zero duration") 0.0
            (ch.Model.term ~current:300.0 ~duration:0.0 ~tail:5.0))
    shipped_models

let test_model_views_decay_reassembles () =
  (* charge + sum_t w_t exp(-rate_t tail) = term, at any tail *)
  List.iter
    (fun m ->
      match m.Model.kernel with
      | Model.Channels d ->
          Array.iter
            (fun r ->
              Alcotest.(check bool) (m.Model.name ^ " rate > 0") true (r > 0.0))
            d.Model.rates;
          let buf = Array.make (Array.length d.Model.rates) 0.0 in
          List.iter
            (fun (current, duration) ->
              d.Model.weights ~current ~duration buf;
              List.iter
                (fun tail ->
                  let got = ref (d.Model.charge ~current ~duration) in
                  Array.iteri
                    (fun t r -> got := !got +. (buf.(t) *. exp (-.r *. tail)))
                    d.Model.rates;
                  check_rel m.Model.name
                    (d.Model.term ~current ~duration ~tail)
                    !got)
                [ 0.0; 1.5; 10.0; 120.0 ])
            base_points
      | Model.Stepper _ -> ())
    shipped_models

let test_model_views_stepper_observes () =
  (* integrating the profile through the stepper observes sigma at the
     makespan; a zero-duration advance leaves the state bit-identical *)
  List.iter
    (fun m ->
      match m.Model.kernel with
      | Model.Channels _ -> ()
      | Model.Stepper st ->
          let ops = st.Model.fresh () in
          let u = Array.make st.Model.state_dim 0.0 in
          ops.Model.start u;
          List.iter
            (fun (current, duration) ->
              ops.Model.advance u ~current ~duration;
              let before = Array.copy u in
              ops.Model.advance u ~current ~duration:0.0;
              Alcotest.(check bool) (m.Model.name ^ " zero-duration identity")
                true
                (Array.for_all2
                   (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
                   before u))
            base_points;
          check_rel m.Model.name (fst (full_eval m base_points))
            (ops.Model.observe u))
    shipped_models

let model_views_tests =
  [ Alcotest.test_case "shipped views" `Quick test_model_views_shipped;
    Alcotest.test_case "incremental sums to sigma" `Quick test_model_views_incremental_sums;
    Alcotest.test_case "decay reassembles term" `Quick test_model_views_decay_reassembles;
    Alcotest.test_case "stepper observes sigma" `Quick test_model_views_stepper_observes ]

(* Random interval lists driven through random move traces: committed
   sigma/finish track the full evaluation of the mirrored list.  One
   instance per delta strategy — incremental terms (Rakhmatov, KiBaM)
   and the checkpointed stepper (diffusion). *)
let prop_delta_traces ~count ~name model =
  QCheck.Test.make ~count ~name
    QCheck.(pair (int_bound 100_000) (int_range 1 12))
    (fun (seed, n) ->
      let rng = Batsched_numeric.Rng.create seed in
      let point () =
        let current = 10.0 +. Batsched_numeric.Rng.float rng 800.0 in
        let duration =
          (* one position in five is zero-duration *)
          if Batsched_numeric.Rng.int rng 5 = 0 then 0.0
          else 0.1 +. Batsched_numeric.Rng.float rng 8.0
        in
        (current, duration)
      in
      let points = ref (List.init n (fun _ -> point ())) in
      let d = delta_of model !points in
      for _ = 1 to 40 do
        let commit_it = Batsched_numeric.Rng.int rng 4 > 0 in
        if n >= 2 && Batsched_numeric.Rng.bool rng then begin
          let k = Batsched_numeric.Rng.int rng (n - 1) in
          ignore (Delta.try_swap d k);
          if commit_it then begin
            Delta.commit d;
            points := swap_list !points k
          end
          else Delta.discard d
        end
        else begin
          let k = Batsched_numeric.Rng.int rng n in
          let v = point () in
          ignore (Delta.try_set d k ~current:(fst v) ~duration:(snd v));
          if commit_it then begin
            Delta.commit d;
            points := set_list !points k v
          end
          else Delta.discard d
        end
      done;
      let sigma, finish = full_eval model !points in
      Float.abs (Delta.sigma d -. sigma) <= 1e-9 *. (1.0 +. Float.abs sigma)
      && Float.abs (Delta.finish d -. finish)
         <= 1e-9 *. (1.0 +. Float.abs finish))

let prop_delta_traces_match_full =
  prop_delta_traces ~count:200 ~name:"delta random move traces match full eval"
    rv

let prop_delta_traces_kibam =
  prop_delta_traces ~count:500
    ~name:"kibam delta traces match full eval (incremental)" (Kibam.model ())

let prop_delta_traces_diffusion =
  prop_delta_traces ~count:500
    ~name:"diffusion delta traces match full eval (checkpointed)"
    coarse_diffusion

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_delta_traces_match_full;
      prop_delta_traces_kibam;
      prop_delta_traces_diffusion;
      prop_sigma_monotone_in_time;
      prop_sigma_at_least_ideal_at_end;
      prop_decreasing_order_never_worse;
      prop_idle_never_hurts;
      prop_sigma_matches_reference;
      prop_sigma_matches_reference_with_gaps;
      prop_periodic_oracle_ideal;
      prop_periodic_oracle_peukert;
      prop_periodic_oracle_rakhmatov;
      prop_periodic_oracle_kibam;
      prop_periodic_oracle_diffusion_exact;
      prop_diffusion_stepper_matches_textbook;
      prop_diffusion_lanes_match_advance;
      prop_periodic_lanes_match;
      prop_sigma_linear_ideal;
      prop_sigma_linear_rakhmatov;
      prop_sigma_linear_kibam;
      prop_sigma_linear_diffusion ]

let () =
  Alcotest.run "battery"
    [ ( "profile",
        [ Alcotest.test_case "empty" `Quick test_profile_empty;
          Alcotest.test_case "sequential layout" `Quick test_profile_sequential_layout;
          Alcotest.test_case "total charge" `Quick test_profile_total_charge;
          Alcotest.test_case "drops zero duration" `Quick test_profile_drops_zero_duration;
          Alcotest.test_case "rejects overlap" `Quick test_profile_rejects_overlap;
          Alcotest.test_case "rejects negative current" `Quick test_profile_rejects_negative_current;
          Alcotest.test_case "touching ok" `Quick test_profile_touching_ok;
          Alcotest.test_case "truncate clips" `Quick test_profile_truncate_clips;
          Alcotest.test_case "truncate drops later" `Quick test_profile_truncate_drops_later;
          Alcotest.test_case "with idle" `Quick test_profile_with_idle;
          Alcotest.test_case "peak current" `Quick test_profile_peak_current;
          Alcotest.test_case "fold_until matches truncate" `Quick test_profile_fold_until_matches_truncate;
          Alcotest.test_case "sequential_fn matches sequential" `Quick test_profile_sequential_fn_matches_sequential ] );
      ( "ideal",
        [ Alcotest.test_case "equals charge" `Quick test_ideal_equals_charge;
          Alcotest.test_case "truncation" `Quick test_ideal_truncation ] );
      ( "peukert",
        [ Alcotest.test_case "reference current" `Quick test_peukert_reference_current_ideal;
          Alcotest.test_case "penalizes high" `Quick test_peukert_penalizes_high_current;
          Alcotest.test_case "rewards low" `Quick test_peukert_rewards_low_current;
          Alcotest.test_case "exponent 1 is ideal" `Quick test_peukert_exponent_one_is_ideal;
          Alcotest.test_case "invalid" `Quick test_peukert_invalid ] );
      ( "rakhmatov",
        [ Alcotest.test_case "reference edges" `Quick test_sigma_reference_single_interval;
          Alcotest.test_case "exceeds ideal during load" `Quick test_rv_exceeds_ideal_during_load;
          Alcotest.test_case "recovers at rest" `Quick test_rv_recovers_at_rest;
          Alcotest.test_case "monotone in time" `Quick test_rv_monotone_in_time_during_load;
          Alcotest.test_case "zero at time zero" `Quick test_rv_zero_at_time_zero;
          Alcotest.test_case "large beta is ideal" `Quick test_rv_large_beta_is_ideal;
          Alcotest.test_case "valid beta range" `Quick test_rv_valid_beta_range;
          Alcotest.test_case "linear in currents" `Quick test_rv_superposition_of_currents;
          Alcotest.test_case "paper magnitude" `Quick test_rv_paper_magnitude;
          Alcotest.test_case "pairwise ordering" `Quick test_rv_ordering_theorem_pairwise;
          Alcotest.test_case "unavailable nonneg" `Quick test_rv_unavailable_nonnegative;
          Alcotest.test_case "sigma dips after heavy load" `Quick test_rv_sigma_can_dip_after_heavy_load;
          Alcotest.test_case "negative time" `Quick test_rv_negative_time_rejected ] );
      ( "kibam",
        [ Alcotest.test_case "full state" `Quick test_kibam_full_state;
          Alcotest.test_case "conservation" `Quick test_kibam_conservation;
          Alcotest.test_case "sigma zero at start" `Quick test_kibam_sigma_zero_at_start;
          Alcotest.test_case "sigma equals drawn at rest" `Quick test_kibam_sigma_equals_drawn_at_equilibrium;
          Alcotest.test_case "rate capacity" `Quick test_kibam_rate_capacity;
          Alcotest.test_case "recovery between bursts" `Quick test_kibam_recovery_between_bursts;
          Alcotest.test_case "lifetime monotone in load" `Quick test_kibam_lifetime_decreases_with_load;
          Alcotest.test_case "delivers less at high rate" `Quick test_kibam_delivers_less_at_high_rate;
          Alcotest.test_case "param validation" `Quick test_kibam_param_validation;
          Alcotest.test_case "step validation" `Quick test_kibam_step_validation;
          Alcotest.test_case "zero-duration step identity" `Quick test_kibam_zero_duration_step_identity ] );
      ("model_views", model_views_tests);
      ("delta", delta_tests);
      ( "lifetime",
        [ Alcotest.test_case "survives light load" `Quick test_lifetime_survives_light_load;
          Alcotest.test_case "dies under heavy load" `Quick test_lifetime_dies_under_heavy_load;
          Alcotest.test_case "constant consistency" `Quick test_lifetime_constant_current_consistent;
          Alcotest.test_case "decreases with load" `Quick test_lifetime_decreases_with_load;
          Alcotest.test_case "ideal exact" `Quick test_lifetime_ideal_model_exact;
          Alcotest.test_case "first crossing on dip" `Quick test_lifetime_first_crossing_on_dip;
          Alcotest.test_case "bad alpha" `Quick test_lifetime_bad_alpha ] );
      ( "diffusion",
        [ Alcotest.test_case "zero load" `Quick test_diffusion_zero_load;
          Alcotest.test_case "conservation at rest" `Quick test_diffusion_conservation_at_rest;
          Alcotest.test_case "matches analytic under load" `Quick test_diffusion_matches_analytic_under_load;
          Alcotest.test_case "matches analytic with recovery" `Quick test_diffusion_matches_analytic_with_recovery;
          Alcotest.test_case "ten terms undercount" `Quick test_diffusion_ten_terms_undercounts_under_load;
          Alcotest.test_case "surface depletes" `Quick test_diffusion_surface_depletes;
          Alcotest.test_case "param validation" `Quick test_diffusion_param_validation;
          Alcotest.test_case "dt too small for the span" `Quick test_diffusion_dt_too_small ] );
      ( "periodic",
        [ Alcotest.test_case "ideal matches budget" `Quick test_periodic_ideal_matches_budget;
          Alcotest.test_case "unsustainable" `Quick test_periodic_unsustainable_first_cycle;
          Alcotest.test_case "rest helps" `Quick test_periodic_rv_rest_helps;
          Alcotest.test_case "cycle longer than period" `Quick test_periodic_cycle_longer_than_period;
          Alcotest.test_case "max cycles cap" `Quick test_periodic_max_cycles_cap;
          Alcotest.test_case "fast path engages" `Quick test_periodic_fast_path_engages;
          Alcotest.test_case "batch matches scalar" `Quick test_periodic_batch_matches_scalar;
          Alcotest.test_case "sweep allocation" `Quick test_periodic_sweep_allocation;
          Alcotest.test_case "set-up words per device" `Quick test_periodic_setup_words;
          Alcotest.test_case "lane sweep allocation" `Quick test_periodic_lane_sweep_allocation ] );
      ( "cell",
        [ Alcotest.test_case "presets" `Quick test_cell_presets;
          Alcotest.test_case "validation" `Quick test_cell_validation ] );
      ( "curves",
        [ Alcotest.test_case "rate capacity shape" `Quick test_curves_rate_capacity_shape;
          Alcotest.test_case "recovery shape" `Quick test_curves_recovery_shape;
          Alcotest.test_case "sigma curve monotone" `Quick test_curves_sigma_curve_monotone;
          Alcotest.test_case "ordering gap" `Quick test_curves_ordering_gap ] );
      ("properties", qcheck_tests) ]
