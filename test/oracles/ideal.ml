module Kahan = Batsched_numeric.Kahan

let sigma_reference p ~at =
  if at < 0.0 then invalid_arg "Ideal.sigma: negative time";
  Kahan.sum
    (Profile.fold_until p ~at ~init:Kahan.zero
       ~f:(fun acc ~start:_ ~duration ~current ->
         Kahan.add acc (current *. duration)))
