let sigma p ~at =
  if at < 0.0 then invalid_arg "Ideal.sigma: negative time";
  Batsched_numeric.Kahan.sum
    (Profile.fold_until p ~at ~init:Batsched_numeric.Kahan.zero
       ~f:(fun acc ~start:_ ~duration ~current ->
         Batsched_numeric.Kahan.add acc (current *. duration)))

(* sigma is the plain charge integral: no memory at all, so the
   per-interval term ignores how much load follows (no channels) and
   every local-search move is O(1) to re-cost. *)
let channels =
  { Model.term = (fun ~current ~duration ~tail:_ -> current *. duration);
    rates = [||];
    weights = (fun ~current:_ ~duration:_ _ -> ());
    charge = (fun ~current ~duration -> current *. duration) }

let model = { Model.name = "ideal"; sigma; kernel = Model.Channels channels }
