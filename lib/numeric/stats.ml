let require_nonempty name = function
  | [] -> invalid_arg (name ^ ": empty sample")
  | _ :: _ -> ()

let mean xs =
  require_nonempty "Stats.mean" xs;
  Kahan.sum_list xs /. float_of_int (List.length xs)

let variance xs =
  require_nonempty "Stats.variance" xs;
  match xs with
  | [ _ ] -> 0.0
  | _ ->
      let m = mean xs in
      let sq = List.map (fun x -> (x -. m) *. (x -. m)) xs in
      Kahan.sum_list sq /. float_of_int (List.length xs - 1)

let min_max xs =
  require_nonempty "Stats.min_max" xs;
  List.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (Float.infinity, Float.neg_infinity)
    xs

let percentile p xs =
  require_nonempty "Stats.percentile" xs;
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p outside [0,100]";
  let arr = Array.of_list xs in
  Array.sort compare arr;
  let n = Array.length arr in
  if n = 1 then arr.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    arr.(lo) +. (frac *. (arr.(hi) -. arr.(lo)))
  end

let median xs = percentile 50.0 xs

let geometric_mean xs =
  require_nonempty "Stats.geometric_mean" xs;
  let logs =
    List.map
      (fun x ->
        if x <= 0.0 then invalid_arg "Stats.geometric_mean: non-positive sample"
        else log x)
      xs
  in
  exp (mean logs)
