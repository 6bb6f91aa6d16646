type design_point = { current : float; duration : float; voltage : float }

type t = { id : int; name : string; points : design_point array }

let check_point { current; duration; voltage } =
  if not (current > 0.0 && Float.is_finite current) then
    invalid_arg "Task: design point current must be positive";
  if not (duration > 0.0 && Float.is_finite duration) then
    invalid_arg "Task: design point duration must be positive";
  if not (voltage > 0.0 && Float.is_finite voltage) then
    invalid_arg "Task: design point voltage must be positive"

let make ~id ~name points =
  if id < 0 then invalid_arg "Task.make: negative id";
  if points = [] then invalid_arg "Task.make: no design points";
  List.iter check_point points;
  let arr = Array.of_list points in
  (* Points listed by strictly increasing duration are already in the
     one order any sort gives them; skipping the sort skips its
     closures.  With ties the sort runs, since it is not stable. *)
  let increasing = ref true in
  for j = 1 to Array.length arr - 1 do
    if not (arr.(j - 1).duration < arr.(j).duration) then increasing := false
  done;
  if not !increasing then
    Array.sort (fun a b -> compare a.duration b.duration) arr;
  for j = 1 to Array.length arr - 1 do
    (* Tiny tolerance: published tables sometimes show equal currents at
       adjacent points after rounding. *)
    if arr.(j).current > arr.(j - 1).current +. 1e-9 then
      invalid_arg "Task.make: currents must be non-increasing as duration grows"
  done;
  { id; name; points = arr }

let of_pairs ~id ~name ?voltages pairs =
  let voltages =
    match voltages with
    | None -> List.map (fun _ -> 1.0) pairs
    | Some vs ->
        if List.length vs <> List.length pairs then
          invalid_arg "Task.of_pairs: voltage list length mismatch"
        else vs
  in
  let points =
    List.map2
      (fun (current, duration) voltage -> { current; duration; voltage })
      pairs voltages
  in
  make ~id ~name points

let num_points t = Array.length t.points

let point t j =
  if j < 0 || j >= Array.length t.points then
    invalid_arg "Task.point: column out of range";
  t.points.(j)

let fastest t = t.points.(0)

let slowest t = t.points.(Array.length t.points - 1)

let energy t j =
  let p = point t j in
  p.current *. p.voltage *. p.duration

let charge t j =
  let p = point t j in
  p.current *. p.duration

(* Each energy reaches [Kahan.Acc.add_at] in the cell [x]: a closure or
   a call that returned it would box it. *)
let average_energy t =
  let m = num_points t in
  let acc = Batsched_numeric.Kahan.Acc.create () and x = [| 0.0 |] in
  for j = 0 to m - 1 do
    let p = t.points.(j) in
    x.(0) <- p.current *. p.voltage *. p.duration;
    Batsched_numeric.Kahan.Acc.add_at acc x 0
  done;
  Batsched_numeric.Kahan.Acc.sum acc /. float_of_int m

