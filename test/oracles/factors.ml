open Batsched_taskgraph
open Batsched_sched

(* The compensated sum, in task-id order, of [term] at every task's
   column [col i]. *)
let sum_points g col term =
  Batsched_numeric.Kahan.sum_fn (Graph.num_tasks g) (fun i ->
      term (Task.point (Graph.task g i) (col i)))

let energy (p : Task.design_point) = p.current *. p.voltage *. p.duration

let energy_sum g col = sum_points g col energy

let current_range g =
  List.fold_left
    (fun (lo, hi) t ->
      ( Float.min lo (Task.slowest t).Task.current,
        Float.max hi (Task.fastest t).Task.current ))
    (Float.infinity, Float.neg_infinity)
    (Graph.tasks g)

let energy_bounds g =
  let m = Graph.num_points g in
  (energy_sum g (fun _ -> m - 1), energy_sum g (fun _ -> 0))

let total_energy g a = energy_sum g (Assignment.column a)

let total_charge g a =
  sum_points g (Assignment.column a) (fun p -> p.Task.current *. p.Task.duration)

let slack_ratio ~deadline ~time =
  if not (deadline > 0.0) then invalid_arg "Factors.slack_ratio: deadline <= 0";
  (deadline -. time) /. deadline

let current_ratio g i =
  let imin, imax = current_range g in
  if imax -. imin <= 0.0 then 0.0 else (i -. imin) /. (imax -. imin)

let energy_ratio g a =
  let emin, emax = energy_bounds g in
  if emax -. emin <= 0.0 then 0.0
  else (total_energy g a -. emin) /. (emax -. emin)

let current_increase_fraction g a sequence =
  match sequence with
  | [] -> invalid_arg "Factors.current_increase_fraction: empty sequence"
  | [ _ ] -> 0.0
  | first :: rest ->
      let current v = (Assignment.chosen_point g a v).Task.current in
      let increases, _ =
        List.fold_left
          (fun (count, prev) v ->
            ((if current v > prev then count + 1 else count), current v))
          (0, current first) rest
      in
      float_of_int increases /. float_of_int (List.length sequence - 1)

let suitability ~sr ~cr ~enr ~cif ~dpf = sr +. cr +. enr +. cif +. dpf
