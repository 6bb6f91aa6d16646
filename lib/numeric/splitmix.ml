type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix64 (Int64.of_int seed) }

let of_raw state = { state }

let next g =
  g.state <- Int64.add g.state golden_gamma;
  mix64 g.state

(* jump [i + 1] gammas ahead of the parent's current position and
   avalanche: distinct indices land on distinct states (the jump is
   injective in [i]), and the parent is untouched, so child identity is
   a pure function of (parent state, i) — the property the fleet
   sampler's pool-size invariance rests on *)
let substream g i =
  if i < 0 then invalid_arg "Splitmix.substream: negative index";
  { state =
      mix64 (Int64.add g.state (Int64.mul golden_gamma (Int64.of_int (i + 1))))
  }

let float01 g =
  let v = Int64.to_float (Int64.shift_right_logical (next g) 11) in
  v /. 9007199254740992.0 (* 2^53 *)

let rand_below g n =
  if n <= 0 then invalid_arg "Splitmix.rand_below: bound must be positive";
  Int64.to_int (Int64.rem (Int64.shift_right_logical (next g) 1) (Int64.of_int n))
