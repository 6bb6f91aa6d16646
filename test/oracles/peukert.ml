let sigma_reference ?(exponent = 1.2) ?(reference_current = 100.0) p ~at =
  if exponent < 1.0 then invalid_arg "Peukert.sigma: exponent must be >= 1";
  if reference_current <= 0.0 then
    invalid_arg "Peukert.sigma: reference current must be positive";
  if at < 0.0 then invalid_arg "Peukert.sigma: negative time";
  let k = reference_current ** (1.0 -. exponent) in
  let clipped = Profile.truncate p ~at in
  let contribution (iv : Profile.interval) =
    if iv.current = 0.0 then 0.0
    else k *. (iv.current ** exponent) *. iv.duration
  in
  Batsched_numeric.Kahan.sum_list
    (List.map contribution (Profile.intervals clipped))
