type t = { label : string; alpha : float; beta : float }

let make ~label ~alpha ~beta =
  if not (alpha > 0.0) then invalid_arg "Cell.make: alpha must be positive";
  if not (beta > 0.0) then invalid_arg "Cell.make: beta must be positive";
  { label; alpha; beta }

let itsy = make ~label:"itsy" ~alpha:40375.0 ~beta:0.273

let rated_capacity_mah t = t.alpha /. 60.0

let model t = Rakhmatov.model ~beta:t.beta ()
