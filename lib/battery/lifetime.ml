open Batsched_numeric

type outcome =
  | Dies_at of float
  | Survives of { sigma_at_end : float; headroom : float }

let check_alpha alpha =
  if not (alpha > 0.0) then invalid_arg "Lifetime: alpha must be positive"

(* First crossing of alpha: forward scan in [steps] increments to find
   the bracketing step (sigma may dip after heavy intervals, so a
   global monotone inversion could report a later crossing), then
   bisection inside it. *)
let first_crossing ~model ~alpha p ~horizon =
  let f t = Model.sigma model p ~at:t in
  let steps = 2048 in
  let dt = horizon /. float_of_int steps in
  let rec scan k prev_t =
    if k > steps then None
    else begin
      let t = if k = steps then horizon else dt *. float_of_int k in
      if f t >= alpha then Some (prev_t, t) else scan (k + 1) t
    end
  in
  match scan 1 0.0 with
  | None -> None
  | Some (lo, hi) ->
      Some (Rootfind.bisect ~tol:1e-6 ~f:(fun t -> f t -. alpha) ~lo ~hi ())

let of_profile ~model ~alpha p =
  check_alpha alpha;
  let horizon = Profile.length p in
  if horizon <= 0.0 then Survives { sigma_at_end = 0.0; headroom = alpha }
  else
    match first_crossing ~model ~alpha p ~horizon with
    | Some t -> Dies_at t
    | None ->
        let sigma_at_end = Model.sigma model p ~at:horizon in
        Survives { sigma_at_end; headroom = alpha -. sigma_at_end }

let of_constant_current ~model ~alpha ~current =
  check_alpha alpha;
  if not (current > 0.0) then
    invalid_arg "Lifetime.of_constant_current: current must be positive";
  (* The load lasts "forever": give the profile a generous horizon and
     extend it if the battery outlives it. *)
  let rec search horizon =
    if not (Float.is_finite horizon) then
      invalid_arg
        "Lifetime.of_constant_current: horizon is not finite (current too \
         small for alpha)";
    let p = Profile.constant ~current ~duration:horizon in
    match of_profile ~model ~alpha p with
    | Dies_at t -> t
    | Survives _ -> search (2.0 *. horizon)
  in
  search (Float.max 1.0 (2.0 *. alpha /. current))

let survives ~model ~alpha p =
  match of_profile ~model ~alpha p with
  | Survives _ -> true
  | Dies_at _ -> false
