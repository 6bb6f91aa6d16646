module Kahan = Batsched_numeric.Kahan

let kernel_direct ?(terms = Batsched_numeric.Series.default_terms) ~beta a b =
  if not (beta > 0.0) then invalid_arg "Series: beta must be positive";
  if terms <= 0 then invalid_arg "Series: terms must be positive";
  if a < 0.0 || b < a then invalid_arg "Series.kernel: need 0 <= a <= b";
  let b2 = beta *. beta in
  let term i =
    let m = float_of_int (i + 1) in
    let m2 = m *. m in
    (exp (-.b2 *. m2 *. a) -. exp (-.b2 *. m2 *. b)) /. (b2 *. m2)
  in
  2.0 *. Kahan.sum_fn terms term
