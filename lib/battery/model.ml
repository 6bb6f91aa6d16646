open Batsched_numeric

type channels = {
  term : float array -> int -> unit;
  rates : float array;
  weights : current:float -> duration:float -> float array -> unit;
  charge : current:float -> duration:float -> float;
}

type lane_group = {
  width : int;
  state : float array;
  current : float array;
  duration : float array;
  sigma : float array;
  load : int -> float array -> unit;
  span : int -> int;
  run : int -> unit;
  observe : int -> unit;
}

type stepper = {
  state_dim : int;
  params : float array;
  group : int -> lane_group;
}

type kernel =
  | Channels of channels
  | Stepper of stepper

type t = {
  name : string;
  kernel : kernel;
}

(* The Kahan fold of the channel terms.  The interval [iter_until]
   hands over sits in cells 0-2 and the term's in 3-5, the term left in
   cell 3 for [Kahan.Acc.add_at]: no float crosses a call boxed, so the
   fold allocates nothing per interval. *)
let channels_sigma ch p ~at =
  let buf = Array.make 6 0.0 in
  let acc = Kahan.Acc.create () in
  Profile.iter_until p ~at buf (fun () ->
      let duration = buf.(1) in
      buf.(3) <- buf.(2);
      buf.(4) <- duration;
      buf.(5) <- Float.max 0.0 (at -. buf.(0) -. duration);
      ch.term buf 3;
      Kahan.Acc.add_at acc buf 3);
  Kahan.Acc.sum acc

(* Integrate through each idle gap at current 0 and each interval,
   clipping every span at [at] on the clock, on a group of one lane.
   The walk takes the intervals unclipped ([~at:infinity]) and lets
   [run_to] clip: an interval straddling [at] then ends at [at] itself,
   where [start + (at - start)] could miss it by an ulp. *)
let stepper_sigma st p ~at =
  let g = st.group 1 in
  g.load 0 st.params;
  let clock = ref 0.0 in
  let run_to t ~current =
    let t = Float.min t at in
    if t > !clock then begin
      g.current.(0) <- current;
      g.duration.(0) <- t -. !clock;
      g.run (g.span 0);
      clock := t
    end
  in
  let buf = Array.make 3 0.0 in
  Profile.iter_until p ~at:Float.infinity buf (fun () ->
      run_to buf.(0) ~current:0.0;
      run_to (buf.(0) +. buf.(1)) ~current:buf.(2));
  run_to at ~current:0.0;
  g.observe 0;
  g.sigma.(0)

let sigma m p ~at =
  if at < 0.0 then invalid_arg "Model.sigma: negative time";
  let probe = Probe.local () in
  probe.Probe.sigma_evals <- probe.Probe.sigma_evals + 1;
  match m.kernel with
  | Channels ch -> channels_sigma ch p ~at
  | Stepper st -> stepper_sigma st p ~at

let sigma_end m p = sigma m p ~at:(Profile.length p)
