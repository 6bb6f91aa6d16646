module Kahan = Batsched_numeric.Kahan

let exp_sum ?(terms = Batsched_numeric.Series.default_terms) ~beta t =
  let b2 = beta *. beta in
  let total = ref 0.0 and comp = ref 0.0 in
  for k = 0 to terms - 1 do
    let m = float_of_int (k + 1) in
    let m2 = m *. m in
    let x = exp (-.b2 *. m2 *. t) /. (b2 *. m2) in
    let s = !total +. x in
    comp :=
      !comp
      +. (if Float.abs !total >= Float.abs x then (!total -. s) +. x
          else (x -. s) +. !total);
    total := s
  done;
  2.0 *. (!total +. !comp)

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
