open Batsched_numeric

let check_params exponent reference_current =
  if exponent < 1.0 then invalid_arg "Peukert.sigma: exponent must be >= 1";
  if reference_current <= 0.0 then
    invalid_arg "Peukert.sigma: reference current must be positive"

let sigma ?(exponent = 1.2) ?(reference_current = 100.0) p ~at =
  check_params exponent reference_current;
  if at < 0.0 then invalid_arg "Peukert.sigma: negative time";
  let k = reference_current ** (1.0 -. exponent) in
  let clipped = Profile.truncate p ~at in
  let contribution (iv : Profile.interval) =
    if iv.current = 0.0 then 0.0
    else k *. (iv.current ** exponent) *. iv.duration
  in
  Kahan.sum_list (List.map contribution (Profile.intervals clipped))

(* Same per-interval formula as [sigma]'s contribution: rate-dependence
   only, no memory of the rest of the schedule, so tail is ignored. *)
let incremental ~exponent ~reference_current =
  let k = reference_current ** (1.0 -. exponent) in
  { Model.term =
      (fun ~current ~duration ~tail:_ ->
        if current = 0.0 then 0.0
        else k *. (current ** exponent) *. duration);
    tail_sensitive = false }

(* rate-dependence only, no memory: channel-free like the ideal model *)
let decay ~exponent ~reference_current =
  let k = reference_current ** (1.0 -. exponent) in
  { Model.rates = [||];
    weights = (fun ~current:_ ~duration:_ _ -> ());
    charge =
      (fun ~current ~duration ->
        if current = 0.0 then 0.0
        else k *. (current ** exponent) *. duration) }

let model ?(exponent = 1.2) ?(reference_current = 100.0) () =
  check_params exponent reference_current;
  { Model.name = "peukert";
    sigma = (fun p ~at -> sigma ~exponent ~reference_current p ~at);
    incremental = Some (incremental ~exponent ~reference_current);
    stepper = None;
    decay = Some (decay ~exponent ~reference_current) }
