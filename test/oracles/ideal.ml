(* The immutable Neumaier accumulator the ideal sigma was first written
   with; [Kahan.Acc] does the same operations in place. *)
let add (total, compensation) x =
  let t = total +. x in
  let c =
    if Float.abs total >= Float.abs x then compensation +. ((total -. t) +. x)
    else compensation +. ((x -. t) +. total)
  in
  (t, c)

let sigma_reference p ~at =
  if at < 0.0 then invalid_arg "Ideal.sigma: negative time";
  let total, compensation =
    Profile.fold_until p ~at ~init:(0.0, 0.0)
      ~f:(fun acc ~start:_ ~duration ~current -> add acc (current *. duration))
  in
  total +. compensation
