open Batsched_taskgraph
open Batsched_sched

exception Infeasible
exception Too_large

let max_orders = 5_000

let run ?(max_assignments = 200_000) ~model g ~deadline =
  let n = Graph.num_tasks g and m = Graph.num_points g in
  let total_assignments =
    let rec power acc k = if k = 0 then acc else power (acc * m) (k - 1) in
    try power 1 n with _ -> max_int
  in
  if total_assignments > max_assignments then raise Too_large;
  let orders = Analysis.all_topological_orders ~limit:(max_orders + 1) g in
  if List.length orders > max_orders then raise Too_large;
  let duration i j = (Task.point (Graph.task g i) j).Task.duration in
  let best = ref None in
  let columns = Array.make n 0 in
  let consider () =
    let assignment = Assignment.of_list g (Array.to_list columns) in
    List.iter
      (fun sequence ->
        let sched = Schedule.make g ~sequence ~assignment in
        let sol = Solution.of_schedule ~model g sched in
        match !best with
        | Some b when b.Solution.sigma <= sol.Solution.sigma -> ()
        | _ -> best := Some sol)
      orders
  in
  (* Depth-first over assignments with running-time pruning. *)
  let rec assign i time =
    if time > deadline +. 1e-9 then ()
    else if i = n then consider ()
    else
      for j = 0 to m - 1 do
        columns.(i) <- j;
        assign (i + 1) (time +. duration i j)
      done
  in
  assign 0 0.0;
  match !best with Some s -> s | None -> raise Infeasible
