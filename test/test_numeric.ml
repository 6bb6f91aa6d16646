(* Tests for the numeric substrate: compensated summation, the RV
   series kernel, root finding, interpolation, statistics, the PRNG and
   fixed-point ticks. *)

open Batsched_numeric

let check_float = Alcotest.(check (float 1e-9))
let check_close eps = Alcotest.(check (float eps))

(* --- Kahan --- *)

let test_kahan_empty () = check_float "empty sum" 0.0 (Kahan.sum Kahan.zero)

let test_kahan_simple () =
  check_float "1+2+3" 6.0 (Kahan.sum_list [ 1.0; 2.0; 3.0 ])

let test_kahan_compensation () =
  (* classic case: 1 + 1e16 - 1e16 loses the 1 under naive summation
     order 1e16, 1, -1e16 *)
  let naive = 1e16 +. 1.0 -. 1e16 in
  ignore naive;
  check_float "compensated" 1.0 (Kahan.sum_list [ 1e16; 1.0; -1e16 ])

let test_kahan_many_small () =
  let n = 100_000 in
  let v = Kahan.sum_fn n (fun _ -> 0.1) in
  check_close 1e-9 "100k * 0.1" 10_000.0 v

let test_kahan_sum_fn_negative () =
  Alcotest.check_raises "negative count" (Invalid_argument "Kahan.sum_fn: negative count")
    (fun () -> ignore (Kahan.sum_fn (-1) (fun _ -> 1.0)))

let test_kahan_array () =
  check_float "array" 15.0 (Kahan.sum_array [| 1.0; 2.0; 3.0; 4.0; 5.0 |])

(* --- Series --- *)

let test_series_kernel_zero_interval () =
  (* a = b means no interval: kernel must be 0 *)
  check_float "empty interval" 0.0 (Series.kernel ~beta:0.273 2.0 2.0)

let test_series_kernel_positive () =
  let v = Series.kernel ~beta:0.273 0.0 10.0 in
  Alcotest.(check bool) "positive" true (v > 0.0)

let test_series_kernel_monotone_in_b () =
  let k b = Series.kernel ~beta:0.273 0.0 b in
  Alcotest.(check bool) "monotone" true (k 5.0 < k 10.0 && k 10.0 < k 50.0)

let test_series_kernel_bounded_by_limit () =
  let limit = Series.kernel_limit ~beta:0.273 in
  let v = Series.kernel ~terms:2000 ~beta:0.273 0.0 1e6 in
  Alcotest.(check bool) "below limit" true (v <= limit +. 1e-6);
  (* truncation tail is ~ 2/(beta^2 * terms) ~ 0.0134 here *)
  check_close 0.02 "approaches limit" limit v

let test_series_kernel_decays_with_a () =
  (* recovery: moving the interval into the past shrinks its
     unavailable-charge contribution *)
  let k a = Series.kernel ~beta:0.273 a (a +. 10.0) in
  Alcotest.(check bool) "decays" true (k 0.0 > k 10.0 && k 10.0 > k 100.0)

let test_series_large_beta_vanishes () =
  (* beta -> infinity is the ideal battery: kernel ~ 0 *)
  let v = Series.kernel ~beta:100.0 0.0 10.0 in
  Alcotest.(check bool) "vanishes" true (v < 1e-3)

let test_series_invalid () =
  Alcotest.check_raises "bad order"
    (Invalid_argument "Series.kernel: need 0 <= a <= b") (fun () ->
      ignore (Series.kernel ~beta:0.273 5.0 1.0));
  Alcotest.check_raises "bad beta"
    (Invalid_argument "Series: beta must be positive") (fun () ->
      ignore (Series.exp_sum ~beta:0.0 1.0))

let test_series_exp_sum_matches_kernel_at_zero () =
  (* kernel(0, b) = exp_sum(0) - exp_sum(b) *)
  let beta = 0.273 in
  let b = 7.0 in
  check_close 1e-9 "identity"
    (Series.exp_sum ~beta 0.0 -. Series.exp_sum ~beta b)
    (Series.kernel ~beta 0.0 b)

let test_series_negative_clamp () =
  (* cancellation noise within 1e-12 of zero evaluates as zero; a
     genuinely negative time is still a caller bug *)
  let beta = 0.273 in
  check_float "tiny negative clamps" (Series.exp_sum ~beta 0.0)
    (Series.exp_sum ~beta (-1e-13));
  check_float "cached clamps too" (Series.exp_sum_cached ~beta 0.0)
    (Series.exp_sum_cached ~beta (-1e-13));
  Alcotest.check_raises "beyond tolerance raises"
    (Invalid_argument "Series.exp_sum: negative time") (fun () ->
      ignore (Series.exp_sum ~beta (-1e-9)))

let test_series_cached_across_eviction () =
  (* churn well past the memo capacity so generations turn over, then
     confirm cached values are still exactly what exp_sum computes *)
  let beta = 0.273 in
  for i = 0 to 99_999 do
    ignore (Series.exp_sum_cached ~beta (float_of_int i /. 7.0))
  done;
  for i = 0 to 99 do
    let x = float_of_int (997 * i) /. 7.0 in
    Alcotest.(check bool) "bit-identical after churn" true
      (Float.equal (Series.exp_sum ~beta x) (Series.exp_sum_cached ~beta x))
  done

(* --- Fcache --- *)

(* The slot interface, wrapped for readable tests: [fc_find t k] is the
   value stored under the key [k] ([arity] floats) or [nan], and
   [fc_add t k v] stores [v] under it. *)
let fc_find t k =
  Array.blit k 0 (Fcache.key t) 0 (Array.length k);
  let dst = [| Float.nan |] in
  ignore (Fcache.find_into t dst 0);
  dst.(0)

let fc_add t k v =
  Array.blit k 0 (Fcache.key t) 0 (Array.length k);
  Fcache.add_from t [| v |] 0

let test_fcache_roundtrip () =
  let t = Fcache.create ~capacity:64 ~arity:3 () in
  Alcotest.(check bool) "fresh miss is nan" true
    (Float.is_nan (fc_find t [| 1.0; 2.0; 3.0 |]));
  fc_add t [| 1.0; 2.0; 3.0 |] 42.0;
  check_float "hit" 42.0 (fc_find t [| 1.0; 2.0; 3.0 |]);
  fc_add t [| 1.0; 2.0; 3.0 |] 7.0;
  check_float "overwrite in place" 7.0 (fc_find t [| 1.0; 2.0; 3.0 |]);
  Alcotest.(check bool) "permuted key misses" true
    (Float.is_nan (fc_find t [| 3.0; 2.0; 1.0 |]));
  (* keys compare bit-for-bit: -0.0 and 0.0 are different keys *)
  fc_add t [| 0.0; 0.0; 0.0 |] 1.0;
  Alcotest.(check bool) "negative zero is a distinct key" true
    (Float.is_nan (fc_find t [| -0.0; 0.0; 0.0 |]));
  Fcache.clear t;
  Alcotest.(check bool) "cleared" true
    (Float.is_nan (fc_find t [| 1.0; 2.0; 3.0 |]));
  Alcotest.(check int) "empty after clear" 0 (Fcache.live_count t)

let test_fcache_arity_checked () =
  let t = Fcache.create ~capacity:64 ~arity:3 () in
  Alcotest.(check int) "key buffer holds arity floats" 3
    (Array.length (Fcache.key t));
  (* a key written short of the arity misses: its last cell is not the
     previous lookup's *)
  fc_add t [| 1.0; 2.0; 3.0 |] 42.0;
  check_float "full key hits" 42.0 (fc_find t [| 1.0; 2.0; 3.0 |]);
  Alcotest.(check bool) "under-filled key misses" true
    (Float.is_nan (fc_find t [| 1.0; 2.0 |]));
  Alcotest.(check int) "arity" 3 (Fcache.arity t);
  Alcotest.check_raises "bad arity"
    (Invalid_argument "Fcache.create: arity not in 1..8") (fun () ->
      ignore (Fcache.create ~arity:0 ()))

let test_fcache_eviction_bounded () =
  let t = Fcache.create ~capacity:64 ~arity:3 () in
  let cap = Fcache.capacity t in
  let total = 4 * cap in
  for i = 0 to total - 1 do
    fc_add t [| float_of_int i; 0.5; -2.0 |] (float_of_int (2 * i))
  done;
  Alcotest.(check bool) "live set bounded by capacity" true
    (Fcache.live_count t <= cap);
  Alcotest.(check bool) "generations advanced" true (Fcache.generation t > 1);
  (* whatever still hits must return exactly the stored value *)
  let hits = ref 0 in
  for i = 0 to total - 1 do
    let v = fc_find t [| float_of_int i; 0.5; -2.0 |] in
    if not (Float.is_nan v) then begin
      incr hits;
      check_float "hit is stored value" (float_of_int (2 * i)) v
    end
  done;
  Alcotest.(check bool) "recent keys survive" true (!hits > 0)

(* Round-valued keys (integer currents, durations and tails, as in the
   paper's instances) differ only in the top bits of their float words;
   a hash that never folds those bits into the slot index loses most of
   these keys to probe-window overflow in a 1024-slot table. *)
let test_fcache_round_keys_disperse () =
  let survivors add find =
    for k = 0 to 255 do
      add k (float_of_int k)
    done;
    let n = ref 0 in
    for k = 0 to 255 do
      if Float.equal (find k) (float_of_int k) then incr n
    done;
    !n
  in
  let t3 = Fcache.create ~capacity:1024 ~arity:3 () in
  Alcotest.(check int) "arity 3: (0.273, 10, k/2)" 256
    (survivors
       (fun k -> fc_add t3 [| 0.273; 10.0; float_of_int k /. 2.0 |])
       (fun k -> fc_find t3 [| 0.273; 10.0; float_of_int k /. 2.0 |]));
  let t5 = Fcache.create ~capacity:1024 ~arity:5 () in
  let current k = float_of_int (100 * (1 + (k mod 8)))
  and duration k = float_of_int (1 + (k / 8 mod 8))
  and tail k = float_of_int (k / 64) in
  Alcotest.(check int) "arity 5: integer current, duration, tail" 256
    (survivors
       (fun k ->
         fc_add t5 [| 0.273; 10.0; current k; duration k; tail k |])
       (fun k ->
         fc_find t5 [| 0.273; 10.0; current k; duration k; tail k |]))

(* A lookup allocates nothing, hit or miss: keys and values travel
   through float arrays, never as float arguments or results (a call
   into another module boxes those, 2 words each), and the probe loop
   and the key comparison are top-level functions, so no closure is
   built per call (without flambda a local recursive closure costs 5
   words each). *)
let test_fcache_lookup_allocation () =
  let n = 100_000 in
  let words_per_call f =
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (f ()))
    done;
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  let t3 = Fcache.create ~arity:3 () and t5 = Fcache.create ~arity:5 () in
  fc_add t3 [| 0.273; 10.0; 4.5 |] 1.25;
  fc_add t5 [| 0.273; 10.0; 800.0; 2.0; 3.5 |] 2.5;
  let dst = [| 0.0 |] in
  let find3 t k2 () =
    let k = Fcache.key t in
    k.(0) <- 0.273;
    k.(1) <- 10.0;
    k.(2) <- k2;
    Fcache.find_into t dst 0
  and find5 t k4 () =
    let k = Fcache.key t in
    k.(0) <- 0.273;
    k.(1) <- 10.0;
    k.(2) <- 800.0;
    k.(3) <- 2.0;
    k.(4) <- k4;
    Fcache.find_into t dst 0
  in
  let check name f =
    ignore (words_per_call f);
    let w = words_per_call f in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.3f words per call <= 0" name w)
      true (w <= 0.01)
  in
  check "arity-3 hit" (find3 t3 4.5);
  check "arity-5 hit" (find5 t5 3.5);
  check "arity-3 miss" (find3 t3 9.5);
  check "arity-5 miss" (find5 t5 9.5);
  Alcotest.(check (float 0.0)) "the hit wrote its value" 2.5
    (ignore (find5 t5 3.5 ()); dst.(0))

let test_fcache_grows_to_cap () =
  let t = Fcache.create ~arity:3 () in
  let cap = 65536 in
  Alcotest.(check bool) "starts below its cap" true (Fcache.capacity t < cap);
  let sizes_ok = ref true in
  let add k =
    fc_add t [| float_of_int k; 0.5; -2.0 |] (float_of_int (2 * k));
    let c = Fcache.capacity t in
    if c > cap || c land (c - 1) <> 0 then sizes_ok := false
  in
  for k = 0 to 4095 do
    add k
  done;
  let found = ref 0 in
  for k = 0 to 4095 do
    if Float.equal (fc_find t [| float_of_int k; 0.5; -2.0 |])
         (float_of_int (2 * k))
    then incr found
  done;
  Alcotest.(check int) "all 4096 keys found" 4096 !found;
  (* the insertion count runs across growth: the first flip comes
     after exactly cap/2 insertions, as in a table born full-size *)
  for k = 4096 to (cap / 2) - 2 do
    add k
  done;
  Alcotest.(check int) "no flip before cap/2 insertions" 1
    (Fcache.generation t);
  add ((cap / 2) - 1);
  Alcotest.(check int) "flip at cap/2 insertions" 2 (Fcache.generation t);
  Alcotest.(check int) "grown to the cap" cap (Fcache.capacity t);
  Alcotest.(check bool) "power-of-two sizes up to the cap" true !sizes_ok

(* --- Rootfind --- *)

let test_bisect_linear () =
  let r = Rootfind.bisect ~f:(fun x -> x -. 3.0) ~lo:0.0 ~hi:10.0 () in
  check_close 1e-6 "root" 3.0 r

let test_brent_polynomial () =
  let f x = (x *. x *. x) -. (2.0 *. x) -. 5.0 in
  let r = Rootfind.brent ~f ~lo:1.0 ~hi:3.0 () in
  check_close 1e-7 "wilkinson classic" 2.0945514815423265 r

let test_brent_endpoint_root () =
  let r = Rootfind.brent ~f:(fun x -> x) ~lo:0.0 ~hi:5.0 () in
  check_float "root at lo" 0.0 r

let test_bisect_no_sign_change () =
  Alcotest.check_raises "no bracket"
    (Invalid_argument "Rootfind.bisect: bracket does not change sign")
    (fun () -> ignore (Rootfind.bisect ~f:(fun _ -> 1.0) ~lo:0.0 ~hi:1.0 ()))

let test_invert_monotone () =
  let f x = x *. x in
  let r = Rootfind.invert_monotone ~f ~target:49.0 ~lo:0.0 () in
  check_close 1e-6 "sqrt via inversion" 7.0 r

let test_invert_monotone_already_met () =
  let r = Rootfind.invert_monotone ~f:(fun x -> x) ~target:(-5.0) ~lo:2.0 () in
  check_float "lo already satisfies" 2.0 r

(* --- Interp --- *)

let test_interp_exact_at_knots () =
  let c = Interp.of_points [ (0.0, 1.0); (1.0, 3.0); (2.0, 2.0) ] in
  check_float "knot 0" 1.0 (Interp.eval c 0.0);
  check_float "knot 1" 3.0 (Interp.eval c 1.0);
  check_float "knot 2" 2.0 (Interp.eval c 2.0)

let test_interp_midpoint () =
  let c = Interp.of_points [ (0.0, 0.0); (2.0, 4.0) ] in
  check_float "midpoint" 2.0 (Interp.eval c 1.0)

let test_interp_extrapolation () =
  let c = Interp.of_points [ (0.0, 0.0); (1.0, 2.0) ] in
  check_float "beyond hi" 6.0 (Interp.eval c 3.0);
  check_float "below lo" (-2.0) (Interp.eval c (-1.0))

let test_interp_unsorted_input () =
  let c = Interp.of_points [ (2.0, 2.0); (0.0, 0.0); (1.0, 1.0) ] in
  check_float "sorted internally" 0.5 (Interp.eval c 0.5)

let test_interp_duplicate_x () =
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Interp.of_points: duplicate abscissa") (fun () ->
      ignore (Interp.of_points [ (1.0, 1.0); (1.0, 2.0) ]))

let test_interp_tabulate () =
  let c = Interp.tabulate ~f:(fun x -> 2.0 *. x) ~lo:0.0 ~hi:10.0 ~n:11 in
  check_float "domain lo" 0.0 (fst (Interp.domain c));
  check_float "domain hi" 10.0 (snd (Interp.domain c));
  check_float "linear reproduced" 7.0 (Interp.eval c 3.5)

(* --- Stats --- *)

let test_stats_mean () = check_float "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ])

let test_stats_variance () =
  check_float "variance" 2.5 (Stats.variance [ 1.0; 2.0; 3.0; 4.0; 5.0 ])

let test_stats_singleton_variance () =
  check_float "singleton" 0.0 (Stats.variance [ 42.0 ])

let test_stats_min_max () =
  let lo, hi = Stats.min_max [ 3.0; 1.0; 2.0 ] in
  check_float "min" 1.0 lo;
  check_float "max" 3.0 hi

let test_stats_median_odd () =
  check_float "median odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ])

let test_stats_median_even () =
  check_float "median even" 1.5 (Stats.median [ 1.0; 2.0 ])

let test_stats_percentile_bounds () =
  let xs = [ 10.0; 20.0; 30.0 ] in
  check_float "p0" 10.0 (Stats.percentile 0.0 xs);
  check_float "p100" 30.0 (Stats.percentile 100.0 xs)

let test_stats_geometric_mean () =
  check_close 1e-9 "geomean" 2.0 (Stats.geometric_mean [ 1.0; 2.0; 4.0 ])

let test_stats_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.mean: empty sample")
    (fun () -> ignore (Stats.mean []))

(* --- Rng --- *)

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_different_seeds () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different" true (Rng.bits64 a <> Rng.bits64 b)

let test_rng_int_range () =
  let g = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int g 10 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 10)
  done

let test_rng_float_range () =
  let g = Rng.create 4 in
  for _ = 1 to 1000 do
    let v = Rng.float g 2.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 2.5)
  done

let test_rng_split_independent () =
  let g = Rng.create 5 in
  let h = Rng.split g in
  (* the split stream differs from the parent's continuation *)
  Alcotest.(check bool) "independent" true (Rng.bits64 g <> Rng.bits64 h)

let test_rng_shuffle_permutation () =
  let g = Rng.create 6 in
  let arr = Array.init 20 Fun.id in
  Rng.shuffle g arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 20 Fun.id) sorted

let test_rng_pick_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Rng.pick: empty list")
    (fun () -> ignore (Rng.pick (Rng.create 1) []))

(* --- Ticks --- *)

let test_ticks_roundtrip () =
  Alcotest.(check int) "7.3 min" 73 (Ticks.of_minutes 7.3);
  check_float "back" 7.3 (Ticks.to_minutes 73)

let test_ticks_exact_rejects_offgrid () =
  Alcotest.(check bool) "on grid ok" true (Ticks.of_minutes_exn 5.3 = 53);
  Alcotest.check_raises "off grid"
    (Invalid_argument
       "Ticks.of_minutes_exn: not representable at 0.1-min resolution")
    (fun () -> ignore (Ticks.of_minutes_exn 5.34))

let test_ticks_ceil_floor () =
  Alcotest.(check int) "ceil off-grid" 54 (Ticks.of_minutes_ceil 5.34);
  Alcotest.(check int) "floor off-grid" 53 (Ticks.of_minutes_floor 5.34);
  Alcotest.(check int) "ceil on-grid exact" 53 (Ticks.of_minutes_ceil 5.3);
  Alcotest.(check int) "floor on-grid exact" 53 (Ticks.of_minutes_floor 5.3)

let test_ticks_sub_truncates () =
  Alcotest.(check int) "saturating" 0 (Ticks.sub 3 5)

let test_ticks_negative () =
  Alcotest.check_raises "negative"
    (Invalid_argument "Ticks.of_minutes: negative or non-finite") (fun () ->
      ignore (Ticks.of_minutes (-1.0)))

(* --- Tridiag (the test-only general solver) --- *)

module Tridiag = Batsched_oracles.Tridiag

let test_tridiag_identity () =
  let x =
    Tridiag.solve ~lower:[| 0.0; 0.0 |] ~diag:[| 1.0; 1.0; 1.0 |]
      ~upper:[| 0.0; 0.0 |] ~rhs:[| 3.0; 4.0; 5.0 |]
  in
  Alcotest.(check (array (float 1e-12))) "identity" [| 3.0; 4.0; 5.0 |] x

let test_tridiag_known_system () =
  (* [[2,1,0];[1,2,1];[0,1,2]] x = [4;8;8] -> x = [1;2;3] *)
  let x =
    Tridiag.solve ~lower:[| 1.0; 1.0 |] ~diag:[| 2.0; 2.0; 2.0 |]
      ~upper:[| 1.0; 1.0 |] ~rhs:[| 4.0; 8.0; 8.0 |]
  in
  Alcotest.(check (array (float 1e-9))) "known" [| 1.0; 2.0; 3.0 |] x

let test_tridiag_single () =
  let x = Tridiag.solve ~lower:[||] ~diag:[| 4.0 |] ~upper:[||] ~rhs:[| 8.0 |] in
  Alcotest.(check (array (float 1e-12))) "single" [| 2.0 |] x

let test_tridiag_residual_random () =
  let g = Rng.create 9 in
  for _ = 1 to 20 do
    let n = 2 + Rng.int g 20 in
    let diag = Array.init n (fun _ -> 4.0 +. Rng.float g 4.0) in
    let lower = Array.init (n - 1) (fun _ -> Rng.float g 1.0) in
    let upper = Array.init (n - 1) (fun _ -> Rng.float g 1.0) in
    let rhs = Array.init n (fun _ -> Rng.float g 10.0 -. 5.0) in
    let x = Tridiag.solve ~lower ~diag ~upper ~rhs in
    for i = 0 to n - 1 do
      let ax =
        (if i > 0 then lower.(i - 1) *. x.(i - 1) else 0.0)
        +. (diag.(i) *. x.(i))
        +. (if i < n - 1 then upper.(i) *. x.(i + 1) else 0.0)
      in
      check_close 1e-9 "residual" rhs.(i) ax
    done
  done

let test_tridiag_validation () =
  Alcotest.check_raises "lengths"
    (Invalid_argument "Tridiag.solve: inconsistent lengths") (fun () ->
      ignore (Tridiag.solve ~lower:[||] ~diag:[| 1.0; 1.0 |] ~upper:[| 1.0 |]
                ~rhs:[| 1.0; 1.0 |]))

(* --- Pool --- *)

let test_pool_sequential_is_map () =
  let xs = List.init 20 Fun.id in
  Alcotest.(check (list int)) "inline map"
    (List.map (fun x -> x * x) xs)
    (Pool.map_list Pool.sequential (fun x -> x * x) xs)

let test_pool_parallel_preserves_order () =
  let pool = Pool.create 4 in
  let xs = List.init 100 Fun.id in
  Alcotest.(check (list int)) "order"
    (List.map (fun x -> (x * 7) mod 13) xs)
    (Pool.map_list pool (fun x -> (x * 7) mod 13) xs)

let test_pool_matches_sequential_floats () =
  let pool = Pool.create 4 in
  let xs = Array.init 64 (fun i -> float_of_int (i + 1)) in
  let f x = Series.exp_sum ~beta:0.273 x in
  Alcotest.(check bool) "bit-identical" true
    (Pool.map_array pool f xs = Array.map f xs)

let test_pool_empty_and_singleton () =
  let pool = Pool.create 8 in
  Alcotest.(check (list int)) "empty" [] (Pool.map_list pool succ []);
  Alcotest.(check (list int)) "singleton" [ 2 ] (Pool.map_list pool succ [ 1 ])

let test_pool_nested_runs_sequentially () =
  let pool = Pool.create 4 in
  let out =
    Pool.map_list pool
      (fun x -> Pool.map_list pool (fun y -> (x * 10) + y) [ 1; 2; 3 ])
      [ 1; 2 ]
  in
  Alcotest.(check (list (list int))) "nested" [ [ 11; 12; 13 ]; [ 21; 22; 23 ] ] out

let test_pool_exception_first_index () =
  let pool = Pool.create 4 in
  Alcotest.check_raises "first failing index wins"
    (Invalid_argument "boom-3") (fun () ->
      ignore
        (Pool.map_list pool
           (fun x ->
             if x >= 3 then invalid_arg (Printf.sprintf "boom-%d" x) else x)
           (List.init 16 Fun.id)))

let test_pool_validation () =
  Alcotest.check_raises "size" (Invalid_argument "Pool.create: size < 1")
    (fun () -> ignore (Pool.create 0));
  Alcotest.(check bool) "recommended positive" true (Pool.recommended () >= 1)

let test_pool_map_list_direct () =
  (* the sequential/nested path builds the list directly (no array
     round-trip); a long list must not overflow the stack *)
  let n = 200_000 in
  let xs = List.init n Fun.id in
  let out = Pool.map_list Pool.sequential succ xs in
  Alcotest.(check int) "length" n (List.length out);
  Alcotest.(check int) "head" 1 (List.hd out);
  Alcotest.(check int) "last" n (List.nth out (n - 1));
  Alcotest.check_raises "exceptions pass through" (Failure "direct") (fun () ->
      ignore
        (Pool.map_list Pool.sequential
           (fun x -> if x = 7 then failwith "direct" else x)
           (List.init 16 Fun.id)))

let test_pool_for_range () =
  Pool.with_pool 4 @@ fun pool ->
  let n = 1000 in
  let out = Array.make n 0 in
  Pool.for_range pool ~n (fun lo hi ->
      for i = lo to hi - 1 do
        out.(i) <- i * i
      done);
  Alcotest.(check bool) "span cover" true
    (out = Array.init n (fun i -> i * i));
  Alcotest.check_raises "smallest lo wins" (Failure "span-0") (fun () ->
      Pool.for_range pool ~n:64 (fun lo _ ->
          if lo < 32 then failwith (Printf.sprintf "span-%d" lo)))

let test_pool_submit_and_shutdown () =
  let pool = Pool.create 4 in
  let hits = Atomic.make 0 in
  for _ = 1 to 8 do
    Pool.submit pool (fun () -> Atomic.incr hits)
  done;
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Atomic.get hits < 8 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  Alcotest.(check int) "all jobs ran" 8 (Atomic.get hits);
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  Alcotest.(check int) "no workers after shutdown" 0 (Pool.live_workers pool);
  (* maps on a shut-down pool degrade to sequential, same results *)
  let xs = Array.init 40 Fun.id in
  Alcotest.(check bool) "post-shutdown map" true
    (Pool.map_array pool succ xs = Array.map succ xs);
  (* a job submitted after shutdown runs inline *)
  Pool.submit pool (fun () -> Atomic.incr hits);
  Alcotest.(check int) "inline job" 9 (Atomic.get hits)

(* Determinism under forced interleavings: a per-chunk delay dilates
   execution enough that helpers claim chunks alongside the caller
   (single-core hosts otherwise rarely interleave), and the output must
   still be bit-identical to the sequential map, run after run. *)
let test_pool_determinism_under_delays () =
  Pool.with_pool 4 @@ fun pool ->
  let xs = Array.init 96 (fun i -> float_of_int (i + 1)) in
  let f x = Series.exp_sum ~beta:0.273 x in
  let expected = Array.map f xs in
  Fun.protect ~finally:(fun () -> Pool.set_task_delay None) @@ fun () ->
  Pool.set_task_delay (Some (fun () -> Unix.sleepf 0.0002));
  for run = 1 to 5 do
    Alcotest.(check bool)
      (Printf.sprintf "run %d bit-identical" run)
      true
      (Pool.map_array pool f xs = expected)
  done;
  let stats = Pool.worker_stats pool in
  let chunks = Array.fold_left (fun a s -> a + s.Pool.chunks) 0 stats in
  Alcotest.(check bool) "helper slots ran chunks" true
    (chunks - stats.(0).Pool.chunks > 0)

(* Poll [cond] until it holds or [timeout] seconds pass. *)
let wait_until ~timeout cond =
  let deadline = Unix.gettimeofday () +. timeout in
  while (not (cond ())) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  cond ()

(* Run [f] under a watchdog that fails the whole process if [f] has not
   returned within [timeout] seconds: a lost wakeup in the executor
   shows up as a hang, which an in-process check could never report. *)
let with_watchdog ~timeout name f =
  let finished = Atomic.make false in
  let dog =
    Domain.spawn (fun () ->
        if not (wait_until ~timeout (fun () -> Atomic.get finished)) then begin
          Printf.eprintf "%s: no progress after %.0f s\n%!" name timeout;
          exit 1
        end)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set finished true;
      Domain.join dog)
    f

(* A region opened while submitted jobs are still queued on the same
   pool must neither wait for them nor lose them. *)
let test_pool_region_with_queued_jobs () =
  Pool.with_pool 4 @@ fun pool ->
  let hits = Atomic.make 0 in
  for _ = 1 to 12 do
    Pool.submit pool (fun () ->
        Unix.sleepf 0.002;
        Atomic.incr hits)
  done;
  let xs = Array.init 200 (fun i -> float_of_int (i + 1)) in
  let f x = Series.exp_sum ~beta:0.273 x in
  Alcotest.(check bool) "region result" true
    (Pool.map_array pool f xs = Array.map f xs);
  Alcotest.(check bool) "every job ran" true
    (wait_until ~timeout:10.0 (fun () -> Atomic.get hits = 12))

(* [for_range] under forced interleavings: spans raise iff they hold a
   bad index, naming the first one they hold, so whatever the span
   boundaries the smallest-[lo] failure names index 37. *)
let test_pool_for_range_exception_under_delays () =
  let bad = [ 37; 90; 151 ] in
  Fun.protect ~finally:(fun () -> Pool.set_task_delay None) @@ fun () ->
  Pool.set_task_delay (Some (fun () -> Unix.sleepf 0.0002));
  List.iter
    (fun size ->
      Pool.with_pool size @@ fun pool ->
      for run = 1 to 5 do
        Alcotest.check_raises
          (Printf.sprintf "pool %d run %d" size run)
          (Failure "37")
          (fun () ->
            Pool.for_range pool ~n:200 (fun lo hi ->
                match List.find_opt (fun i -> lo <= i && i < hi) bad with
                | Some i -> failwith (string_of_int i)
                | None -> ()))
      done)
    [ 2; 4 ]

(* Lost-wakeup guard: many tiny regions interleaved with job
   submissions, each region's result checked against the sequential
   map, all under a deadline. *)
let test_pool_tiny_regions_with_jobs () =
  with_watchdog ~timeout:60.0 "tiny regions with jobs" @@ fun () ->
  Pool.with_pool 4 @@ fun pool ->
  let hits = Atomic.make 0 and jobs = ref 0 and mismatches = ref 0 in
  for i = 0 to 1999 do
    if i mod 3 = 0 then begin
      incr jobs;
      Pool.submit pool (fun () -> Atomic.incr hits)
    end;
    let xs = Array.init (2 + (i mod 8)) (fun k -> (i * 16) + k) in
    let f x = (x * 7) mod 13 in
    if Pool.map_array pool f xs <> Array.map f xs then incr mismatches
  done;
  Alcotest.(check int) "regions match the sequential map" 0 !mismatches;
  Alcotest.(check bool) "every job ran" true
    (wait_until ~timeout:10.0 (fun () -> Atomic.get hits = !jobs))

(* --- qcheck properties --- *)

let prop_kahan_matches_naive_small =
  QCheck.Test.make ~count:200 ~name:"kahan agrees with naive on benign input"
    QCheck.(list (float_bound_exclusive 1000.0))
    (fun xs ->
      let naive = List.fold_left ( +. ) 0.0 xs in
      Float.abs (Kahan.sum_list xs -. naive) <= 1e-6 *. (1.0 +. Float.abs naive))

let prop_kernel_nonnegative =
  QCheck.Test.make ~count:200 ~name:"series kernel is non-negative"
    QCheck.(pair (float_bound_exclusive 50.0) (float_bound_exclusive 50.0))
    (fun (a, d) ->
      let a = Float.abs a and d = Float.abs d in
      Series.kernel ~beta:0.273 a (a +. d) >= -1e-12)

let prop_interp_within_hull =
  QCheck.Test.make ~count:200 ~name:"interpolation stays within segment hull"
    QCheck.(triple (float_bound_exclusive 10.0) (float_bound_exclusive 10.0)
              (float_bound_exclusive 1.0))
    (fun (y0, y1, frac) ->
      let c = Interp.of_points [ (0.0, y0); (1.0, y1) ] in
      let v = Interp.eval c frac in
      v >= Float.min y0 y1 -. 1e-9 && v <= Float.max y0 y1 +. 1e-9)

let prop_percentile_monotone =
  QCheck.Test.make ~count:200 ~name:"percentile is monotone in p"
    QCheck.(list_of_size Gen.(int_range 1 50) (float_bound_exclusive 100.0))
    (fun xs ->
      Stats.percentile 25.0 xs <= Stats.percentile 75.0 xs +. 1e-9)

let prop_kernel_matches_direct =
  (* the memoized F(a) - F(b) evaluation against the term-by-term
     reference, including a = 0 and a = b edges *)
  QCheck.Test.make ~count:500 ~name:"cached kernel agrees with direct kernel"
    QCheck.(triple (float_bound_inclusive 50.0) (float_bound_inclusive 50.0)
              (float_bound_inclusive 2.0))
    (fun (a, d, beta_off) ->
      let a = Float.abs a and d = Float.abs d in
      let beta = 0.05 +. Float.abs beta_off in
      let cached = Series.kernel ~beta a (a +. d) in
      let direct = Batsched_oracles.Series.kernel_direct ~beta a (a +. d) in
      Float.abs (cached -. direct) <= 1e-9)

let prop_kernel_zero_a_matches_direct =
  QCheck.Test.make ~count:200 ~name:"cached kernel a = 0 edge"
    QCheck.(float_bound_inclusive 100.0)
    (fun b ->
      let b = Float.abs b in
      Float.abs (Series.kernel ~beta:0.273 0.0 b
                 -. Batsched_oracles.Series.kernel_direct ~beta:0.273 0.0 b)
      <= 1e-9)

let prop_exp_sum_cached_bit_identical =
  QCheck.Test.make ~count:200 ~name:"cached exp_sum is bit-identical"
    QCheck.(float_bound_inclusive 100.0)
    (fun t ->
      let t = Float.abs t in
      Series.exp_sum_cached ~beta:0.273 t = Series.exp_sum ~beta:0.273 t)

(* Behavioural equivalence with a Hashtbl that never evicts: the
   Fcache may miss at any time, but every hit must return the value of
   the most recent add for that key, and a find immediately after an
   add must hit. *)
let fcache_model_prop ~name ~count ?capacity keys_arb =
  QCheck.Test.make ~count ~name keys_arb (fun keys ->
      let t = Fcache.create ?capacity ~arity:3 () in
      let model = Hashtbl.create 64 in
      let step = ref 0 in
      List.for_all
        (fun k ->
          incr step;
          let k0 = float_of_int k in
          let found = fc_find t [| k0; 1.5; -2.0 |] in
          let hit_ok =
            Float.is_nan found
            || (match Hashtbl.find_opt model k with
               | Some v -> Float.equal v found
               | None -> false)
          in
          let v = float_of_int !step in
          fc_add t [| k0; 1.5; -2.0 |] v;
          Hashtbl.replace model k v;
          hit_ok && Float.equal v (fc_find t [| k0; 1.5; -2.0 |]))
        keys)

(* Capacity 64 so the op stream crosses several generation flips. *)
let prop_fcache_matches_hashtbl_model =
  fcache_model_prop ~count:100
    ~name:"fcache hits agree with a hashtbl model across eviction"
    ~capacity:64
    QCheck.(list_of_size Gen.(int_range 1 400) (int_bound 40))

(* The default cap starts the table at 2048 slots; ~9.3k distinct keys
   (18000+ draws from 12001) cross both growth steps, 2048 -> 16384 ->
   65536. *)
let prop_fcache_growth_matches_hashtbl_model =
  fcache_model_prop ~count:20
    ~name:"fcache hits agree with a hashtbl model across growth"
    QCheck.(list_of_size Gen.(int_range 18000 24000) (int_bound 12000))

(* One long-lived pool per size, shared across qcheck cases: pools are
   cheap to create but their worker domains persist, and creating one
   per generated case would drain the process-wide helper budget. *)
let prop_pools =
  [ (1, Pool.create 1); (2, Pool.create 2); (4, Pool.create 4) ]

let prop_pool_of_size k = List.assoc k prop_pools

let pool_size_gen = QCheck.(map (fun b -> 1 lsl b) (int_bound 2))

let prop_pool_map_matches_sequential =
  QCheck.Test.make ~count:50 ~name:"pool map is order-preserving"
    QCheck.(pair pool_size_gen (small_list small_int))
    (fun (size, xs) ->
      Pool.map_list (prop_pool_of_size size) (fun x -> x * 3) xs
      = List.map (fun x -> x * 3) xs)

(* The inline and the pooled execution paths must be indistinguishable
   from results alone, at every pool size. *)
let prop_pool_matches_sequential_floats =
  QCheck.Test.make ~count:30 ~name:"pooled map = sequential map"
    QCheck.(pair pool_size_gen (list_of_size Gen.(int_range 0 80) small_int))
    (fun (size, xs) ->
      let pool = prop_pool_of_size size in
      let f x = Series.exp_sum ~beta:0.273 (float_of_int (abs x mod 50)) in
      let xs = Array.of_list xs in
      let seq = Array.map f xs in
      Pool.map_array pool f xs = seq)

(* If several items raise, the re-raised exception must be the one a
   sequential left-to-right scan would surface first. *)
let prop_pool_first_exception_identity =
  QCheck.Test.make ~count:30 ~name:"first-exception identity under parallelism"
    QCheck.(
      triple pool_size_gen
        (int_range 1 60)
        (list_of_size Gen.(int_range 1 6) (int_bound 59)))
    (fun (size, n, bad) ->
      let pool = prop_pool_of_size size in
      let f i = if List.mem i bad then failwith (string_of_int i) else i in
      let xs = Array.init n Fun.id in
      let outcome map =
        match map () with
        | (_ : int array) -> None
        | exception Failure msg -> Some msg
      in
      let seq = outcome (fun () -> Array.map f xs) in
      outcome (fun () -> Pool.map_array pool f xs) = seq)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_kahan_matches_naive_small;
      prop_kernel_nonnegative;
      prop_interp_within_hull;
      prop_percentile_monotone;
      prop_kernel_matches_direct;
      prop_kernel_zero_a_matches_direct;
      prop_exp_sum_cached_bit_identical;
      prop_fcache_matches_hashtbl_model;
      prop_fcache_growth_matches_hashtbl_model;
      prop_pool_map_matches_sequential;
      prop_pool_matches_sequential_floats;
      prop_pool_first_exception_identity ]

let () =
  Alcotest.run "numeric"
    [ ( "kahan",
        [ Alcotest.test_case "empty" `Quick test_kahan_empty;
          Alcotest.test_case "simple" `Quick test_kahan_simple;
          Alcotest.test_case "compensation" `Quick test_kahan_compensation;
          Alcotest.test_case "many small" `Quick test_kahan_many_small;
          Alcotest.test_case "negative count" `Quick test_kahan_sum_fn_negative;
          Alcotest.test_case "array" `Quick test_kahan_array ] );
      ( "series",
        [ Alcotest.test_case "zero interval" `Quick test_series_kernel_zero_interval;
          Alcotest.test_case "positive" `Quick test_series_kernel_positive;
          Alcotest.test_case "monotone in b" `Quick test_series_kernel_monotone_in_b;
          Alcotest.test_case "bounded by limit" `Quick test_series_kernel_bounded_by_limit;
          Alcotest.test_case "decays with a" `Quick test_series_kernel_decays_with_a;
          Alcotest.test_case "large beta vanishes" `Quick test_series_large_beta_vanishes;
          Alcotest.test_case "invalid args" `Quick test_series_invalid;
          Alcotest.test_case "exp_sum identity" `Quick test_series_exp_sum_matches_kernel_at_zero;
          Alcotest.test_case "negative clamp" `Quick test_series_negative_clamp;
          Alcotest.test_case "cached across eviction" `Quick test_series_cached_across_eviction ] );
      ( "fcache",
        [ Alcotest.test_case "roundtrip" `Quick test_fcache_roundtrip;
          Alcotest.test_case "arity checked" `Quick test_fcache_arity_checked;
          Alcotest.test_case "eviction bounded" `Quick test_fcache_eviction_bounded;
          Alcotest.test_case "round keys disperse" `Quick
            test_fcache_round_keys_disperse;
          Alcotest.test_case "grows to its cap" `Quick test_fcache_grows_to_cap;
          Alcotest.test_case "lookup allocation" `Quick
            test_fcache_lookup_allocation ] );
      ( "rootfind",
        [ Alcotest.test_case "bisect linear" `Quick test_bisect_linear;
          Alcotest.test_case "brent polynomial" `Quick test_brent_polynomial;
          Alcotest.test_case "endpoint root" `Quick test_brent_endpoint_root;
          Alcotest.test_case "no sign change" `Quick test_bisect_no_sign_change;
          Alcotest.test_case "invert monotone" `Quick test_invert_monotone;
          Alcotest.test_case "invert already met" `Quick test_invert_monotone_already_met ] );
      ( "interp",
        [ Alcotest.test_case "exact at knots" `Quick test_interp_exact_at_knots;
          Alcotest.test_case "midpoint" `Quick test_interp_midpoint;
          Alcotest.test_case "extrapolation" `Quick test_interp_extrapolation;
          Alcotest.test_case "unsorted input" `Quick test_interp_unsorted_input;
          Alcotest.test_case "duplicate x" `Quick test_interp_duplicate_x;
          Alcotest.test_case "tabulate" `Quick test_interp_tabulate ] );
      ( "stats",
        [ Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "variance" `Quick test_stats_variance;
          Alcotest.test_case "singleton variance" `Quick test_stats_singleton_variance;
          Alcotest.test_case "min max" `Quick test_stats_min_max;
          Alcotest.test_case "median odd" `Quick test_stats_median_odd;
          Alcotest.test_case "median even" `Quick test_stats_median_even;
          Alcotest.test_case "percentile bounds" `Quick test_stats_percentile_bounds;
          Alcotest.test_case "geometric mean" `Quick test_stats_geometric_mean;
          Alcotest.test_case "empty" `Quick test_stats_empty ] );
      ( "rng",
        [ Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "different seeds" `Quick test_rng_different_seeds;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "pick empty" `Quick test_rng_pick_empty ] );
      ( "ticks",
        [ Alcotest.test_case "roundtrip" `Quick test_ticks_roundtrip;
          Alcotest.test_case "exact rejects off-grid" `Quick test_ticks_exact_rejects_offgrid;
          Alcotest.test_case "ceil and floor" `Quick test_ticks_ceil_floor;
          Alcotest.test_case "sub truncates" `Quick test_ticks_sub_truncates;
          Alcotest.test_case "negative" `Quick test_ticks_negative ] );
      ( "pool",
        [ Alcotest.test_case "sequential is map" `Quick test_pool_sequential_is_map;
          Alcotest.test_case "parallel preserves order" `Quick test_pool_parallel_preserves_order;
          Alcotest.test_case "bit-identical floats" `Quick test_pool_matches_sequential_floats;
          Alcotest.test_case "empty and singleton" `Quick test_pool_empty_and_singleton;
          Alcotest.test_case "nested runs sequentially" `Quick test_pool_nested_runs_sequentially;
          Alcotest.test_case "exception order" `Quick test_pool_exception_first_index;
          Alcotest.test_case "validation" `Quick test_pool_validation;
          Alcotest.test_case "map_list direct path" `Quick test_pool_map_list_direct;
          Alcotest.test_case "for_range" `Quick test_pool_for_range;
          Alcotest.test_case "submit and shutdown" `Quick test_pool_submit_and_shutdown;
          Alcotest.test_case "determinism under delays" `Quick
            test_pool_determinism_under_delays;
          Alcotest.test_case "region with queued jobs" `Quick
            test_pool_region_with_queued_jobs;
          Alcotest.test_case "for_range exception under delays" `Quick
            test_pool_for_range_exception_under_delays;
          Alcotest.test_case "tiny regions with jobs" `Quick
            test_pool_tiny_regions_with_jobs ] );
      ( "tridiag",
        [ Alcotest.test_case "identity" `Quick test_tridiag_identity;
          Alcotest.test_case "known system" `Quick test_tridiag_known_system;
          Alcotest.test_case "single" `Quick test_tridiag_single;
          Alcotest.test_case "random residuals" `Quick test_tridiag_residual_random;
          Alcotest.test_case "validation" `Quick test_tridiag_validation ] );
      ("properties", qcheck_tests) ]
