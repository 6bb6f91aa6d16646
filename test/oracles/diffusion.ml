module Profile = Batsched_battery.Profile
module Diffusion = Batsched_battery.Diffusion

(* Per step: form the explicit half, fill the full tridiagonal system
   (I - dt/2 A), solve it with [Tridiag.solve_into] and copy the
   solution back. *)
let advance_reference ~dt_max ~dee ~dx ~current u span =
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
      Tridiag.solve_into ~lower ~diag ~upper ~rhs:v ~cw ~dw ~out;
      Array.blit out 0 u 0 n
    done
  end

let sigma_reference ?(params = Diffusion.default_params) profile ~at =
  if at < 0.0 then invalid_arg "Diffusion: negative time";
  let n = params.Diffusion.nodes in
  let dx = 1.0 /. float_of_int (n - 1) in
  let beta = params.Diffusion.beta in
  let dee = beta *. beta /. (Float.pi *. Float.pi) in
  let u = Array.make n params.Diffusion.alpha in
  let clock = ref 0.0 in
  let run_to t ~current =
    let t = Float.min t at in
    if t > !clock then begin
      advance_reference ~dt_max:params.Diffusion.dt ~dee ~dx ~current u
        (t -. !clock);
      clock := t
    end
  in
  List.iter
    (fun (iv : Profile.interval) ->
      run_to iv.Profile.start ~current:0.0;
      run_to (iv.Profile.start +. iv.Profile.duration) ~current:iv.Profile.current)
    (Profile.intervals profile);
  run_to at ~current:0.0;
  params.Diffusion.alpha -. u.(0)
