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
   per constant-current span; [dw] is each step's forward sweep; [co]
   holds the span's coefficients (slots below). *)
type scratch = {
  piv : float array;  (* pivots m_i of the interior nodes 1 .. n-2 *)
  cw : float array;   (* super-diagonal multipliers upper_i / m_i *)
  dw : float array;   (* forward-swept right-hand side *)
  co : float array;
}

let c_d = 0 and c_off = 1 and c_edge = 2 and c_hr = 3 and c_r2 = 4
and c_half = 5 and c_src = 6 and c_last = 7 and ncoef = 8

(* [w] interleaved lanes of [n] nodes: float [x] of lane [l] sits at
   [x * w + l]. *)
let make_scratch ~w n =
  { piv = Array.make (n * w) 0.0;
    cw = Array.make (Stdlib.max 1 (n - 1) * w) 0.0;
    dw = Array.make (n * w) 0.0;
    co = Array.make (ncoef * w) 0.0 }

(* The span prologue both integrators call: split a span of constant
   current I into equal Crank–Nicolson steps no longer than [dt_max],
   write the step's coefficients into [co] and the Thomas factorization
   of (I - dt/2 A) into [piv] and [cw], at lane [l] of [w], and return
   the step count.  The matrix depends only on dt, so its pivots and
   multipliers are computed once per span, not per step.  Inlined, so
   that the lanes' float parameters are not boxed to cross a call. *)
let[@inline] prologue sc ~w ~l ~n ~dt_max ~dee ~dx ~current span =
  let q = span /. dt_max in
  (* From 2^53 on (and at infinity or nan) the step count is no integer
     a float holds exactly, and from 2^63 on [int_of_float] returns
     min_int, which the clamp below would turn into a single step. *)
  if not (q < 0x1p53) then
    invalid_arg "Diffusion: dt too small for the span (2^53 steps or more)";
  (* ceil q, exact below 2^53, without [Float.ceil]'s C call *)
  let t = int_of_float q in
  let steps = Stdlib.max 1 (if float_of_int t < q then t + 1 else t) in
  let dt = span /. float_of_int steps in
  let r = dee /. (dx *. dx) in
  let half = 0.5 *. dt in
  (* (I - dt/2 A): diagonal [d]; off-diagonals [off], except the
     doubled flux-boundary entries upper_0 = lower_{n-2} = [edge] *)
  let d = 1.0 +. (dt *. r) in
  let off = -.half *. r in
  let edge = -.dt *. r in
  let piv = sc.piv and cw = sc.cw and co = sc.co in
  (* hoisting is exact: [half *. r *. x] and [2.0 *. r *. x] associate
     left, so they already compute [hr] and [r2] first *)
  co.((c_d * w) + l) <- d;
  co.((c_off * w) + l) <- off;
  co.((c_edge * w) + l) <- edge;
  co.((c_hr * w) + l) <- half *. r;
  co.((c_r2 * w) + l) <- 2.0 *. r;
  co.((c_half * w) + l) <- half;
  co.((c_src * w) + l) <- dt *. 2.0 *. current /. dx;
  if d = 0.0 then invalid_arg "Diffusion: zero pivot";
  cw.(l) <- edge /. d;
  for i = 1 to n - 2 do
    let m = d -. (off *. cw.(((i - 1) * w) + l)) in
    if m = 0.0 then invalid_arg "Diffusion: zero pivot";
    piv.((i * w) + l) <- m;
    cw.((i * w) + l) <- off /. m
  done;
  let m_last = d -. (edge *. cw.(((n - 2) * w) + l)) in
  if m_last = 0.0 then invalid_arg "Diffusion: zero pivot";
  co.((c_last * w) + l) <- m_last;
  steps

(* Advance [u] across a span of constant current I, for du/dt = D u_xx
   with flux I at x = 0 and a sealed wall at x = 1.

   Each step solves (I - dt/2 A) u' = (I + dt/2 A) u + dt s with the
   Thomas algorithm, in exactly the textbook operation order (the test
   suite pins this step bit for bit against a textbook step built on
   the general solver in its oracle library).  Each step is one fused
   pass: the explicit half is formed node by node inside the forward
   sweep, and back substitution writes straight into [u] (the sweep
   reads only the old [u]; back substitution reads only [dw], [cw] and
   the new [u]). *)
let advance ~params ~sc ~dee ~dx ~current u span =
  if span > 0.0 then begin
    let n = Array.length u in
    let steps =
      prologue sc ~w:1 ~l:0 ~n ~dt_max:params.dt ~dee ~dx ~current span
    in
    let co = sc.co and piv = sc.piv and cw = sc.cw and dw = sc.dw in
    let d = co.(c_d) and off = co.(c_off) and edge = co.(c_edge) in
    let hr = co.(c_hr) and r2 = co.(c_r2) and half = co.(c_half) in
    let src = co.(c_src) and m_last = co.(c_last) in
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

(* [advance] on four devices at once.  The state and the scratch are
   node-major ([x * 4 + l]), and every loop over nodes does the four
   lanes' work for that node one after the other, with each lane's
   coefficients hoisted: the four dependent division chains of the
   forward sweep (and the four multiply-subtract chains of back
   substitution) then overlap instead of each running at the
   division's latency.  Each lane performs exactly [advance]'s float
   operations on its own operands, in the same order, so a lane run
   through its span's step count ends bit-identical to [advance]. *)
let run_lanes sc u n steps =
  let co = sc.co and piv = sc.piv and cw = sc.cw and dw = sc.dw in
  (* slot * 4 + lane: d 0-3, off 4-7, edge 8-11, hr 12-15, r2 16-19,
     half 20-23, src 24-27, m_last 28-31 *)
  let d0 = co.(0) and d1 = co.(1) and d2 = co.(2) and d3 = co.(3) in
  let o0 = co.(4) and o1 = co.(5) and o2 = co.(6) and o3 = co.(7) in
  let e0 = co.(8) and e1 = co.(9) and e2 = co.(10) and e3 = co.(11) in
  let h0 = co.(12) and h1 = co.(13) and h2 = co.(14) and h3 = co.(15) in
  let t0 = co.(16) and t1 = co.(17) and t2 = co.(18) and t3 = co.(19) in
  let f0 = co.(20) and f1 = co.(21) and f2 = co.(22) and f3 = co.(23) in
  let s0 = co.(24) and s1 = co.(25) and s2 = co.(26) and s3 = co.(27) in
  let m0 = co.(28) and m1 = co.(29) and m2 = co.(30) and m3 = co.(31) in
  let z = (n - 1) * 4 in
  for _ = 1 to steps do
    dw.(0) <- (u.(0) +. (f0 *. ((t0 *. u.(4)) -. (t0 *. u.(0)))) -. s0) /. d0;
    dw.(1) <- (u.(1) +. (f1 *. ((t1 *. u.(5)) -. (t1 *. u.(1)))) -. s1) /. d1;
    dw.(2) <- (u.(2) +. (f2 *. ((t2 *. u.(6)) -. (t2 *. u.(2)))) -. s2) /. d2;
    dw.(3) <- (u.(3) +. (f3 *. ((t3 *. u.(7)) -. (t3 *. u.(3)))) -. s3) /. d3;
    for i = 1 to n - 2 do
      let b = i * 4 in
      let v = u.(b) +. (h0 *. (u.(b - 4) -. (2.0 *. u.(b)) +. u.(b + 4))) in
      dw.(b) <- (v -. (o0 *. dw.(b - 4))) /. piv.(b);
      let b = b + 1 in
      let v = u.(b) +. (h1 *. (u.(b - 4) -. (2.0 *. u.(b)) +. u.(b + 4))) in
      dw.(b) <- (v -. (o1 *. dw.(b - 4))) /. piv.(b);
      let b = b + 1 in
      let v = u.(b) +. (h2 *. (u.(b - 4) -. (2.0 *. u.(b)) +. u.(b + 4))) in
      dw.(b) <- (v -. (o2 *. dw.(b - 4))) /. piv.(b);
      let b = b + 1 in
      let v = u.(b) +. (h3 *. (u.(b - 4) -. (2.0 *. u.(b)) +. u.(b + 4))) in
      dw.(b) <- (v -. (o3 *. dw.(b - 4))) /. piv.(b)
    done;
    let b = z in
    let v = u.(b) +. (f0 *. ((t0 *. u.(b - 4)) -. (t0 *. u.(b)))) in
    u.(b) <- (v -. (e0 *. dw.(b - 4))) /. m0;
    let b = z + 1 in
    let v = u.(b) +. (f1 *. ((t1 *. u.(b - 4)) -. (t1 *. u.(b)))) in
    u.(b) <- (v -. (e1 *. dw.(b - 4))) /. m1;
    let b = z + 2 in
    let v = u.(b) +. (f2 *. ((t2 *. u.(b - 4)) -. (t2 *. u.(b)))) in
    u.(b) <- (v -. (e2 *. dw.(b - 4))) /. m2;
    let b = z + 3 in
    let v = u.(b) +. (f3 *. ((t3 *. u.(b - 4)) -. (t3 *. u.(b)))) in
    u.(b) <- (v -. (e3 *. dw.(b - 4))) /. m3;
    for i = n - 2 downto 0 do
      let b = i * 4 in
      u.(b) <- dw.(b) -. (cw.(b) *. u.(b + 4));
      u.(b + 1) <- dw.(b + 1) -. (cw.(b + 1) *. u.(b + 5));
      u.(b + 2) <- dw.(b + 2) -. (cw.(b + 2) *. u.(b + 6));
      u.(b + 3) <- dw.(b + 3) -. (cw.(b + 3) *. u.(b + 7))
    done
  done

let surface ~params profile ~at =
  if at < 0.0 then invalid_arg "Diffusion: negative time";
  let n = params.nodes in
  let dx = 1.0 /. float_of_int (n - 1) in
  let dee = params.beta *. params.beta /. (Float.pi *. Float.pi) in
  let sc = make_scratch ~w:1 n in
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

(* A device's lane parameters, at [l * nparam] in a group: the prologue's
   three (dt, D, dx) and alpha for [observe]. *)
let p_dt = 0 and p_dee = 1 and p_dx = 2 and p_alpha = 3 and nparam = 4

let lane_group n =
  let w = Model.lane_count in
  assert (w = 4) (* [run_lanes] is unrolled for four lanes *);
  let sc = make_scratch ~w n in
  let u = Array.make (n * w) 0.0 in
  let prm = Array.make (nparam * w) 0.0 in
  let current = Array.make w 0.0 and duration = Array.make w 0.0 in
  let sigma = Array.make w 0.0 in
  { Model.state = u; current; duration; sigma;
    load =
      (fun l params ->
        Array.blit params 0 prm (l * nparam) nparam;
        for x = 0 to n - 1 do
          u.((x * w) + l) <- params.(p_alpha)
        done);
    span =
      (fun l ->
        let p = l * nparam in
        prologue sc ~w ~l ~n ~dt_max:prm.(p + p_dt) ~dee:prm.(p + p_dee)
          ~dx:prm.(p + p_dx) ~current:current.(l) duration.(l));
    run = (fun steps -> run_lanes sc u n steps);
    observe =
      (fun l -> sigma.(l) <- prm.((l * nparam) + p_alpha) -. u.(l)) }

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
  let lane_params = Array.make nparam 0.0 in
  lane_params.(p_dt) <- params.dt;
  lane_params.(p_dee) <- dee;
  lane_params.(p_dx) <- dx;
  lane_params.(p_alpha) <- params.alpha;
  { Model.state_dim = n;
    fresh =
      (fun () ->
        let sc = make_scratch ~w:1 n in
        { Model.start = (fun u -> Array.fill u 0 n params.alpha);
          advance =
            (fun u ~current ~duration ->
              advance ~params ~sc ~dee ~dx ~current u duration);
          observe = (fun u -> params.alpha -. u.(0)) });
    lanes = { Model.params = lane_params; group = (fun () -> lane_group n) } }

let model ?(params = default_params) () =
  { Model.name = "diffusion-pde"; sigma = (fun p ~at -> sigma ~params p ~at);
    (* no finite channel set: sigma is the solution of a PDE, so
       Delta and Periodic advance a stepper state instead *)
    kernel = Model.Stepper (stepper params) }
