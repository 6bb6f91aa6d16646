open Batsched_numeric
open Batsched_taskgraph

type t = { num_points : int; columns : int array }

let check_column t i =
  if i < 0 || i >= Array.length t.columns then
    invalid_arg "Assignment: task id out of range"

let uniform g j =
  { num_points = Graph.num_points g;
    columns = Array.make (Graph.num_tasks g) j }

let all_fastest g = uniform g 0

let all_lowest_power g = uniform g (Graph.num_points g - 1)

let of_list g cols =
  let n = Graph.num_tasks g and m = Graph.num_points g in
  if List.length cols <> n then
    invalid_arg "Assignment.of_list: length mismatch";
  List.iter
    (fun j ->
      if j < 0 || j >= m then invalid_arg "Assignment.of_list: column out of range")
    cols;
  { num_points = m; columns = Array.of_list cols }

let column t i =
  check_column t i;
  t.columns.(i)

let set t i j =
  check_column t i;
  if j < 0 || j >= t.num_points then
    invalid_arg "Assignment.set: column out of range";
  let columns = Array.copy t.columns in
  columns.(i) <- j;
  { t with columns }

let to_list t = Array.to_list t.columns

let chosen_point g t i = Task.point (Graph.task g i) (column t i)

(* [Kahan.sum_fn] over the chosen durations in task-id order, each
   handed to [Kahan.Acc.add_at] in the cell [x]: a closure would box
   it. *)
let total_time g t =
  let acc = Kahan.Acc.create () and x = [| 0.0 |] in
  for i = 0 to Array.length t.columns - 1 do
    x.(0) <- (Task.point (Graph.task g i) t.columns.(i)).Task.duration;
    Kahan.Acc.add_at acc x 0
  done;
  Kahan.Acc.sum acc

let equal a b = a.num_points = b.num_points && a.columns = b.columns

let pp_paper _g fmt t =
  let parts =
    Array.to_list (Array.map (fun j -> Printf.sprintf "P%d" (j + 1)) t.columns)
  in
  Format.pp_print_string fmt (String.concat "," parts)
