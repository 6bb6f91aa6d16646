let sigma_reference ?(terms = Batsched_numeric.Series.default_terms)
    ?(beta = Batsched_battery.Rakhmatov.default_beta) p ~at =
  if at < 0.0 then invalid_arg "Rakhmatov.sigma: negative time";
  let clipped = Profile.truncate p ~at in
  let contribution (iv : Profile.interval) =
    let a = at -. iv.start -. iv.duration in
    let b = at -. iv.start in
    (* truncate guarantees a >= 0 up to float noise *)
    let a = Float.max 0.0 a in
    iv.current *. (iv.duration +. Series.kernel_direct ~terms ~beta a b)
  in
  Batsched_numeric.Kahan.sum_list
    (List.map contribution (Profile.intervals clipped))
