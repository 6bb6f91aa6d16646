let sigma_curve ~model p ~n =
  let horizon = Profile.length p in
  if horizon <= 0.0 then invalid_arg "Curves.sigma_curve: empty profile";
  if n < 2 then invalid_arg "Curves.sigma_curve: need n >= 2";
  let step = horizon /. float_of_int (n - 1) in
  List.init n (fun i ->
      let t = if i = n - 1 then horizon else float_of_int i *. step in
      (t, Model.sigma model p ~at:t))

type rate_capacity_point = {
  current : float;
  lifetime : float;
  delivered : float;
  efficiency : float;
}

let rate_capacity ~cell ~currents =
  let model = Cell.model cell in
  let point current =
    if not (current > 0.0) then
      invalid_arg "Curves.rate_capacity: non-positive current";
    let lifetime =
      Lifetime.of_constant_current ~model ~alpha:cell.Cell.alpha ~current
    in
    let delivered = current *. lifetime in
    { current; lifetime; delivered; efficiency = delivered /. cell.Cell.alpha }
  in
  List.map point currents

type recovery_point = { idle : float; sigma_end : float; recovered : float }

let recovery ~cell ~current ~burst ~idles =
  if not (current > 0.0) then invalid_arg "Curves.recovery: non-positive current";
  if not (burst > 0.0) then invalid_arg "Curves.recovery: non-positive burst";
  let model = Cell.model cell in
  let profile idle =
    Profile.of_intervals
      [ (0.0, burst, current); (burst +. idle, burst, current) ]
  in
  let sigma_of idle =
    (* Observe at the end of the second burst so both runs are compared
       at their own completion instants. *)
    Model.sigma_end model (profile idle)
  in
  let base = sigma_of 0.0 in
  let point idle =
    if idle < 0.0 then invalid_arg "Curves.recovery: negative idle";
    let sigma_end = sigma_of idle in
    { idle; sigma_end; recovered = base -. sigma_end }
  in
  List.map point idles

let ordering_gap ~cell tasks =
  let model = Cell.model cell in
  let run order =
    Model.sigma_end model (Profile.sequential order)
  in
  let dec = List.sort (fun (a, _) (b, _) -> compare b a) tasks in
  let inc = List.sort (fun (a, _) (b, _) -> compare a b) tasks in
  (run dec, run inc)
