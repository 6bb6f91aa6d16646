exception No_bracket

let max_iter = 200

let sign x = if x > 0.0 then 1 else if x < 0.0 then -1 else 0

let check_bracket ~name ~lo ~hi flo fhi =
  if lo > hi then invalid_arg (name ^ ": lo > hi");
  if sign flo * sign fhi > 0 then invalid_arg (name ^ ": bracket does not change sign")

let bisect ?(tol = 1e-9) ~f ~lo ~hi () =
  let flo = f lo and fhi = f hi in
  check_bracket ~name:"Rootfind.bisect" ~lo ~hi flo fhi;
  if flo = 0.0 then lo
  else if fhi = 0.0 then hi
  else
    let rec loop lo hi flo i =
      let mid = 0.5 *. (lo +. hi) in
      if hi -. lo <= tol || i >= max_iter then mid
      else
        let fmid = f mid in
        if fmid = 0.0 then mid
        else if sign fmid = sign flo then loop mid hi fmid (i + 1)
        else loop lo mid flo (i + 1)
    in
    loop lo hi flo 0

(* Brent's method, after Numerical Recipes' zbrent structure. *)
let brent ?(tol = 1e-9) ~f ~lo ~hi () =
  let fa = f lo and fb = f hi in
  check_bracket ~name:"Rootfind.brent" ~lo ~hi fa fb;
  if fa = 0.0 then lo
  else if fb = 0.0 then hi
  else begin
    let a = ref lo and b = ref hi and c = ref hi in
    let fa = ref fa and fb = ref fb in
    let fc = ref !fb in
    let d = ref (hi -. lo) and e = ref (hi -. lo) in
    let result = ref None in
    let iter = ref 0 in
    while !result = None && !iter < max_iter do
      incr iter;
      if sign !fb * sign !fc > 0 then begin
        c := !a; fc := !fa; d := !b -. !a; e := !d
      end;
      if Float.abs !fc < Float.abs !fb then begin
        a := !b; b := !c; c := !a;
        fa := !fb; fb := !fc; fc := !fa
      end;
      let tol1 = (2.0 *. epsilon_float *. Float.abs !b) +. (0.5 *. tol) in
      let xm = 0.5 *. (!c -. !b) in
      if Float.abs xm <= tol1 || !fb = 0.0 then result := Some !b
      else begin
        if Float.abs !e >= tol1 && Float.abs !fa > Float.abs !fb then begin
          let s = !fb /. !fa in
          let p, q =
            if !a = !c then
              let p = 2.0 *. xm *. s in
              (p, 1.0 -. s)
            else begin
              let q = !fa /. !fc and r = !fb /. !fc in
              let p = s *. ((2.0 *. xm *. q *. (q -. r)) -. ((!b -. !a) *. (r -. 1.0))) in
              (p, (q -. 1.0) *. (r -. 1.0) *. (s -. 1.0))
            end
          in
          let p, q = if p > 0.0 then (p, -.q) else (-.p, q) in
          let min1 = (3.0 *. xm *. q) -. Float.abs (tol1 *. q) in
          let min2 = Float.abs (!e *. q) in
          if 2.0 *. p < Float.min min1 min2 then begin
            e := !d; d := p /. q
          end else begin
            d := xm; e := !d
          end
        end else begin
          d := xm; e := !d
        end;
        a := !b; fa := !fb;
        if Float.abs !d > tol1 then b := !b +. !d
        else b := !b +. (if xm >= 0.0 then tol1 else -.tol1);
        fb := f !b
      end
    done;
    match !result with Some r -> r | None -> !b
  end

let invert_monotone ?(tol = 1e-9) ~f ~target ~lo () =
  let g x = f x -. target in
  if g lo >= 0.0 then lo
  else begin
    let rec grow step hi attempts =
      if attempts > 60 then raise No_bracket
      else if g hi >= 0.0 then hi
      else grow (2.0 *. step) (hi +. (2.0 *. step)) (attempts + 1)
    in
    let hi = grow 1.0 (lo +. 1.0) 0 in
    brent ~tol ~f:g ~lo ~hi ()
  end
