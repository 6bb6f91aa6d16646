open Batsched_numeric
open Batsched_taskgraph

let sequence_dec_energy g =
  let n = Graph.num_tasks g in
  let weight = Array.create_float n in
  for v = 0 to n - 1 do
    weight.(v) <- Task.average_energy (Graph.task g v)
  done;
  Analysis.list_schedule_weights g weight

(* For every vertex v, the compensated sum of [value] over the subgraph
   rooted at v (v included) and the size of that subgraph.  One DFS per
   v stamps the shared [mark] array with v; the ascending-id scan then
   adds the marked values in the order [Analysis.descendants] lists
   them, so every sum is bit-identical to [Kahan.sum_list] over the
   descendant list.  [Kahan.Acc.add_at] reads each term from [value],
   so none is boxed. *)
let descendant_sums g value =
  let n = Graph.num_tasks g in
  let mark = Array.make n (-1) in
  let rec visit v u =
    if mark.(u) <> v then begin
      mark.(u) <- v;
      visit_all v (Graph.succs g u)
    end
  and visit_all v = function
    | [] -> ()
    | u :: rest ->
        visit v u;
        visit_all v rest
  in
  let sums = Array.make n 0.0 and sizes = Array.make n 0 in
  let acc = Kahan.Acc.create () in
  for v = 0 to n - 1 do
    visit v v;
    Kahan.Acc.reset acc;
    for u = 0 to n - 1 do
      if mark.(u) = v then begin
        Kahan.Acc.add_at acc value u;
        sizes.(v) <- sizes.(v) + 1
      end
    done;
    sums.(v) <- Kahan.Acc.sum acc
  done;
  (sums, sizes)

let chosen_currents g a =
  let current = Array.create_float (Graph.num_tasks g) in
  for v = 0 to Graph.num_tasks g - 1 do
    current.(v) <- (Assignment.chosen_point g a v).Task.current
  done;
  current

let weighted_sequence g a =
  let sums, _ = descendant_sums g (chosen_currents g a) in
  Analysis.list_schedule_weights g sums

let greedy_mean_current g a =
  let current = chosen_currents g a in
  let sums, sizes = descendant_sums g current in
  let weight = Array.create_float (Graph.num_tasks g) in
  for v = 0 to Graph.num_tasks g - 1 do
    weight.(v) <- Float.max current.(v) (sums.(v) /. float_of_int sizes.(v))
  done;
  Analysis.list_schedule_weights g weight
