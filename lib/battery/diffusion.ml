type params = {
  alpha : float;
  beta : float;
  nodes : int;
  dt : float;
}

let make_params ?(nodes = 64) ?(dt = 0.02) ~alpha ~beta () =
  if not (alpha > 0.0) then invalid_arg "Diffusion.make_params: alpha <= 0";
  if not (beta > 0.0) then invalid_arg "Diffusion.make_params: beta <= 0";
  if nodes < 8 then invalid_arg "Diffusion.make_params: nodes < 8";
  if not (dt > 0.0) then invalid_arg "Diffusion.make_params: dt <= 0";
  { alpha; beta; nodes; dt }

let default_params =
  make_params ~alpha:40375.0 ~beta:Rakhmatov.default_beta ()

(* Work arrays for the Crank–Nicolson spans, sized once per
   integration context so the stepping loop allocates nothing.  [piv]
   and [cw] hold the Thomas factorization of (I - dt/2 A), rebuilt once
   per constant-current span; [dw] is each step's forward sweep. *)
type scratch = {
  piv : float array;  (* pivots m_i of the interior nodes 1 .. n-2 *)
  cw : float array;   (* super-diagonal multipliers upper_i / m_i *)
  dw : float array;   (* forward-swept right-hand side *)
}

let make_scratch n =
  { piv = Array.make n 0.0;
    cw = Array.make (Stdlib.max 1 (n - 1)) 0.0;
    dw = Array.make n 0.0 }

(* Advance [u] across a span of constant current I, splitting it into
   equal Crank–Nicolson steps no longer than params.dt, for
   du/dt = D u_xx with flux I at x = 0 and a sealed wall at x = 1.

   Each step solves (I - dt/2 A) u' = (I + dt/2 A) u + dt s with the
   Thomas algorithm, in exactly the textbook operation order (the test
   suite pins this step bit for bit against a textbook step built on
   the general solver in its oracle library).
   The matrix depends only on dt, so its pivots and multipliers are
   computed once here, not per step.  Each step is then one fused pass:
   the explicit half is formed node by node inside the forward sweep,
   and back substitution writes straight into [u] (the sweep reads only
   the old [u]; back substitution reads only [dw], [cw] and the new
   [u]). *)
let advance ~params ~sc ~dee ~dx ~current u span =
  if span > 0.0 then begin
    let n = Array.length u in
    let steps = Stdlib.max 1 (int_of_float (Float.ceil (span /. params.dt))) in
    let dt = span /. float_of_int steps in
    let r = dee /. (dx *. dx) in
    let half = 0.5 *. dt in
    (* hoisting is exact: [half *. r *. x] and [2.0 *. r *. x] associate
       left, so they already compute [hr] and [r2] first *)
    let hr = half *. r in
    let r2 = 2.0 *. r in
    let src = dt *. 2.0 *. current /. dx in
    (* (I - dt/2 A): diagonal [d]; off-diagonals [off], except the
       doubled flux-boundary entries upper_0 = lower_{n-2} = [edge] *)
    let d = 1.0 +. (dt *. r) in
    let off = -.half *. r in
    let edge = -.dt *. r in
    let piv = sc.piv and cw = sc.cw and dw = sc.dw in
    if d = 0.0 then invalid_arg "Diffusion: zero pivot";
    cw.(0) <- edge /. d;
    for i = 1 to n - 2 do
      let m = d -. (off *. cw.(i - 1)) in
      if m = 0.0 then invalid_arg "Diffusion: zero pivot";
      piv.(i) <- m;
      cw.(i) <- off /. m
    done;
    let m_last = d -. (edge *. cw.(n - 2)) in
    if m_last = 0.0 then invalid_arg "Diffusion: zero pivot";
    for _ = 1 to steps do
      let v0 =
        u.(0) +. (half *. ((r2 *. u.(1)) -. (r2 *. u.(0)))) -. src
      in
      dw.(0) <- v0 /. d;
      for i = 1 to n - 2 do
        let v = u.(i) +. (hr *. (u.(i - 1) -. (2.0 *. u.(i)) +. u.(i + 1))) in
        dw.(i) <- (v -. (off *. dw.(i - 1))) /. piv.(i)
      done;
      let v_last =
        u.(n - 1) +. (half *. ((r2 *. u.(n - 2)) -. (r2 *. u.(n - 1))))
      in
      u.(n - 1) <- (v_last -. (edge *. dw.(n - 2))) /. m_last;
      for i = n - 2 downto 0 do
        u.(i) <- dw.(i) -. (cw.(i) *. u.(i + 1))
      done
    done
  end

let surface ~params profile ~at =
  if at < 0.0 then invalid_arg "Diffusion: negative time";
  let n = params.nodes in
  let dx = 1.0 /. float_of_int (n - 1) in
  let dee = params.beta *. params.beta /. (Float.pi *. Float.pi) in
  let sc = make_scratch n in
  let u = Array.make n params.alpha in
  let clock = ref 0.0 in
  let run_to t ~current =
    let t = Float.min t at in
    if t > !clock then begin
      advance ~params ~sc ~dee ~dx ~current u (t -. !clock);
      clock := t
    end
  in
  List.iter
    (fun (iv : Profile.interval) ->
      run_to iv.Profile.start ~current:0.0;
      run_to (iv.Profile.start +. iv.Profile.duration) ~current:iv.Profile.current)
    (Profile.intervals profile);
  run_to at ~current:0.0;
  u.(0)

let surface_density ?(params = default_params) profile ~at =
  surface ~params profile ~at

let sigma ?(params = default_params) profile ~at =
  params.alpha -. surface ~params profile ~at

(* Checkpointable integration for the delta evaluator: the PDE state is
   the full charge-density grid, a flat float vector {!Delta} can
   snapshot and restore with [Array.blit].  [advance] splits every
   interval independently of absolute time, so restoring a checkpoint
   and re-integrating the suffix is bit-identical to integrating the
   whole profile from scratch. *)
let stepper params =
  let n = params.nodes in
  let dx = 1.0 /. float_of_int (n - 1) in
  let dee = params.beta *. params.beta /. (Float.pi *. Float.pi) in
  { Model.state_dim = n;
    fresh =
      (fun () ->
        let sc = make_scratch n in
        { Model.start = (fun u -> Array.fill u 0 n params.alpha);
          advance =
            (fun u ~current ~duration ->
              advance ~params ~sc ~dee ~dx ~current u duration);
          observe = (fun u -> params.alpha -. u.(0)) }) }

let model ?(params = default_params) () =
  { Model.name = "diffusion-pde"; sigma = (fun p ~at -> sigma ~params p ~at);
    incremental = None;
    stepper = Some (stepper params);
    (* no finite channel set: sigma is the solution of a PDE, so
       Periodic advances a carried stepper state instead *)
    decay = None }
