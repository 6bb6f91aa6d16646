(* Anytime performance profiles over ledger entries.

   The searchers are anytime algorithms: the honest comparison between
   two of them is not final quality but the whole best-so-far
   trajectory — who is ahead after any given budget.  This module
   turns event streams into best-so-far curves, aggregates curves
   across runs into quantile bands, derives ERT-style
   expected-time-to-target tables, and renders a two-cohort comparison
   with a bootstrap dominance verdict.

   Axes: [`Time] (wall seconds) reflects what a user waits for but
   varies with pool size and machine load; [`Evals] (cumulative
   evaluation count carried by the events themselves) is
   pool-size-invariant and machine-invariant, which the property tests
   rely on.  Both are staircases: quality only changes at an
   improvement point, so lookups take the last point at-or-before the
   query.

   Everything here is deterministic: the bootstrap uses a fixed-seed
   splitmix64 stream, sorts break ties structurally, and no wall clock
   is read — the same ledger always yields the same report. *)

type axis = [ `Time | `Evals ]

type run = {
  pts : (float * float) array;  (* x, best sigma; x sorted, sigma nonincreasing *)
  horizon : float;              (* budget actually spent on this run *)
}

(* --- best-so-far curve extraction from an event stream --- *)

let max_curve_points = 96

(* Quality-bearing record kinds and how they advance the evals axis.
   [anneal_level]/[anneal_done] carry a cumulative move count directly;
   multistart [trial] records carry per-trial iteration counts that
   accumulate; [multistart_done] and basched's terminal [run_done]
   carry quality only. *)
let quality_of kind get =
  match kind with
  | "anneal_level" | "anneal_done" | "multistart_done" | "sample" ->
      get "best_sigma"
  | "trial" | "run_done" -> get "sigma"
  | _ -> None

let evals_of kind get ~cum =
  match kind with
  | "anneal_level" | "anneal_done" -> (
      match get "evals" with Some e -> e | None -> cum)
  | "sample" -> ( match get "samples" with Some s -> s | None -> cum)
  | "trial" -> (
      cum +. match get "iterations" with Some i -> i | None -> 1.0)
  | _ -> cum

let downsample pts =
  let n = List.length pts in
  if n <= max_curve_points then pts
  else
    let arr = Array.of_list pts in
    List.init max_curve_points (fun i ->
        arr.(i * (n - 1) / (max_curve_points - 1)))

(* [records]: (t_ns, kind, field lookup) in emission order. *)
let curve_of_seq records =
  let best = ref infinity and cum = ref 0.0 and out = ref [] in
  List.iter
    (fun (t_ns, kind, get) ->
      cum := evals_of kind get ~cum:!cum;
      match quality_of kind get with
      | Some q when q < !best ->
          best := q;
          out := (Int64.to_float t_ns *. 1e-9, !cum, q) :: !out
      | _ -> ())
    records;
  downsample (List.rev !out)

let curve_of_events records =
  curve_of_seq
    (List.map
       (fun (r : Events.record) ->
         let get name =
           match List.assoc_opt name r.Events.fields with
           | Some (Events.F f) -> Some f
           | Some (Events.I i) -> Some (float_of_int i)
           | _ -> None
         in
         (r.Events.t_ns, r.Events.kind, get))
       records)

let curve_of_json records =
  curve_of_seq
    (List.filter_map
       (fun j ->
         match Json.str_field "kind" j with
         | Some kind ->
             let t_ns =
               match Json.num_field "t_ns" j with
               | Some t -> Int64.of_float t
               | None -> 0L
             in
             Some (t_ns, kind, fun name -> Json.num_field name j)
         | None -> None)
       records)

(* --- runs from ledger entries --- *)

let run_of_entry ~axis (e : Ledger.entry) =
  let proj (t, ev, q) = match axis with `Time -> (t, q) | `Evals -> (ev, q) in
  let pts = List.map proj e.Ledger.e_curve in
  (* a final-sigma-only entry (no events captured) still yields a
     one-point staircase at its full budget *)
  let pts =
    match (pts, e.Ledger.e_sigma) with
    | [], Some s ->
        [ ((match axis with `Time -> e.Ledger.e_wall_s | `Evals -> 1.0), s) ]
    | pts, _ -> pts
  in
  match pts with
  | [] -> None
  | _ ->
      let last_x = List.fold_left (fun a (x, _) -> Float.max a x) 0.0 pts in
      let horizon =
        match axis with
        | `Time -> Float.max e.Ledger.e_wall_s last_x
        | `Evals -> last_x
      in
      Some { pts = Array.of_list pts; horizon }

let best_at run x =
  let best = ref None in
  Array.iter (fun (px, q) -> if px <= x then best := Some q) run.pts;
  !best

let final_best run =
  if Array.length run.pts = 0 then infinity
  else snd run.pts.(Array.length run.pts - 1)

let first_quality run =
  if Array.length run.pts = 0 then infinity else snd run.pts.(0)

(* first x at which the run reaches [target]; None if it never does *)
let hit_x run ~target =
  let hit = ref None in
  Array.iter
    (fun (x, q) -> if !hit = None && q <= target then hit := Some x)
    run.pts;
  !hit

(* --- aggregation --- *)

let quantile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let r = p *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor r) in
    let hi = int_of_float (Float.ceil r) in
    let f = r -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. f)) +. (sorted.(hi) *. f)

let grid ?(n = 24) runs =
  let hmax = List.fold_left (fun a r -> Float.max a r.horizon) 0.0 runs in
  let hmax = if hmax <= 0.0 then 1.0 else hmax in
  List.init n (fun i -> hmax *. float_of_int (i + 1) /. float_of_int n)

(* quality quantiles across runs at [x]; a run with no point yet
   contributes its first (worst) quality, so early-x bands do not
   silently drop the slow starters *)
let band runs ~x ~p =
  let vals =
    List.map
      (fun r -> match best_at r x with Some q -> q | None -> first_quality r)
      runs
  in
  let arr = Array.of_list vals in
  Array.sort Float.compare arr;
  quantile arr p

(* Expected running time to [target]: (sum of hitting budgets over
   successes + full budgets of failures) / #successes — the standard
   restart-style estimator.  None when no run ever reaches it. *)
let ert runs ~target =
  let spent, hits =
    List.fold_left
      (fun (s, h) r ->
        match hit_x r ~target with
        | Some x -> (s +. x, h + 1)
        | None -> (s +. r.horizon, h))
      (0.0, 0) runs
  in
  if hits = 0 then None else Some (spent /. float_of_int hits)

(* target ladder between the worst starting quality and the best final
   quality across both cohorts: fractions of the remaining gap *)
let target_fractions = [ 0.5; 0.25; 0.1; 0.05; 0.01; 0.0 ]

let targets runs =
  let q_best =
    List.fold_left (fun a r -> Float.min a (final_best r)) infinity runs
  in
  let q_start =
    List.fold_left
      (fun a r -> Float.max a (first_quality r))
      neg_infinity runs
  in
  if not (Float.is_finite q_best && Float.is_finite q_start) then []
  else if q_start <= q_best then [ q_best ]
  else
    List.map (fun f -> q_best +. (f *. (q_start -. q_best))) target_fractions

(* --- bootstrap dominance --- *)

(* fixed-seed splitmix64 (the shared [Batsched_numeric.Splitmix] core,
   with the raw unpremixed seeding this bootstrap has always used): the
   verdict must be a pure function of the ledger, so reruns of
   [basched profile] agree bit-for-bit *)
let rand_below = Batsched_numeric.Splitmix.rand_below

(* anytime score of a cohort: mean median-quality over the shared grid
   — lower is better, and a cohort that is ahead everywhere has the
   smaller area under its median staircase *)
let score runs ~xs =
  let s = List.fold_left (fun a x -> a +. band runs ~x ~p:0.5) 0.0 xs in
  s /. float_of_int (List.length xs)

type verdict = {
  a_wins : float;       (* bootstrap fraction where A's score is lower *)
  score_a : float;
  score_b : float;
  resamples : int;
}

let resample state arr =
  let n = Array.length arr in
  List.init n (fun _ -> arr.(rand_below state n))

let resamples = 400

let dominance ?(seed = 0x5eed) a b =
  let xs = grid (a @ b) in
  let state = Batsched_numeric.Splitmix.of_raw (Int64.of_int seed) in
  let a_arr = Array.of_list a and b_arr = Array.of_list b in
  let wins = ref 0 in
  for _ = 1 to resamples do
    let sa = score (resample state a_arr) ~xs in
    let sb = score (resample state b_arr) ~xs in
    if sa < sb then incr wins
  done;
  { a_wins = float_of_int !wins /. float_of_int resamples;
    score_a = score a ~xs;
    score_b = score b ~xs;
    resamples }

(* --- rendering --- *)

let axis_name = function `Time -> "seconds" | `Evals -> "evals"

let fnum f =
  if Float.is_finite f then Printf.sprintf "%.6g" f else "-"

let compare_to_string ?(axis = `Evals) ~name_a ~name_b a_entries b_entries =
  let runs_of entries =
    List.filter_map (fun e -> run_of_entry ~axis e) entries
  in
  let a = runs_of a_entries and b = runs_of b_entries in
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s;
                                   Buffer.add_char buf '\n') fmt in
  line "profile: %s (%d runs) vs %s (%d runs), axis=%s" name_a
    (List.length a) name_b (List.length b) (axis_name axis);
  if a = [] || b = [] then begin
    line "  not enough runs with convergence data to compare";
    Buffer.contents buf
  end
  else begin
    let xs = grid (a @ b) in
    line "";
    line "  best-so-far sigma (median [q25..q75])";
    line "  %12s  %28s  %28s" (axis_name axis) name_a name_b;
    List.iter
      (fun x ->
        let cell runs =
          Printf.sprintf "%10s [%s..%s]"
            (fnum (band runs ~x ~p:0.5))
            (fnum (band runs ~x ~p:0.25))
            (fnum (band runs ~x ~p:0.75))
        in
        line "  %12s  %28s  %28s" (fnum x) (cell a) (cell b))
      (List.filteri (fun i _ -> i mod 4 = 3) xs);
    line "";
    line "  expected %s to target (ERT)" (axis_name axis);
    line "  %14s  %14s  %14s" "target sigma" name_a name_b;
    List.iter
      (fun t ->
        let cell runs =
          match ert runs ~target:t with Some e -> fnum e | None -> "never"
        in
        line "  %14s  %14s  %14s" (fnum t) (cell a) (cell b))
      (targets (a @ b));
    line "";
    let v = dominance a b in
    line "  anytime score (mean median sigma over grid): %s=%s %s=%s" name_a
      (fnum v.score_a) name_b (fnum v.score_b);
    let verdict =
      if v.a_wins >= 0.95 then Printf.sprintf "%s dominates" name_a
      else if v.a_wins <= 0.05 then Printf.sprintf "%s dominates" name_b
      else "no significant dominance"
    in
    line "  verdict: %s (%s better in %.1f%% of %d bootstrap resamples)"
      verdict
      (if v.a_wins >= 0.5 then name_a else name_b)
      (100.0 *. if v.a_wins >= 0.5 then v.a_wins else 1.0 -. v.a_wins)
      v.resamples;
    Buffer.contents buf
  end
