open Batsched_numeric
open Batsched_taskgraph
open Batsched_sched
module Shipped = Batsched_baselines.Random_search
module Solution = Batsched_baselines.Solution

(* A copy of the shipped repair sampler: draw a column per task, then
   speed up random slowable tasks while over the deadline.  The two must
   consume the RNG identically. *)
let random_feasible_assignment ~rng g ~deadline =
  let n = Graph.num_tasks g and m = Graph.num_points g in
  let duration i j = (Task.point (Graph.task g i) j).Task.duration in
  let columns = Array.init n (fun _ -> Rng.int rng m) in
  let total () =
    Kahan.sum_fn n (fun i -> duration i columns.(i))
  in
  let rec repair attempts =
    if total () <= deadline +. 1e-9 then Some (Array.to_list columns)
    else begin
      let candidates =
        List.filter (fun i -> columns.(i) > 0) (List.init n Fun.id)
      in
      if candidates = [] || attempts = 0 then None
      else begin
        let i = Rng.pick rng candidates in
        columns.(i) <- columns.(i) - 1;
        repair (attempts - 1)
      end
    end
  in
  match repair (n * m) with
  | Some cols -> Some (Assignment.of_list g cols)
  | None -> None

let run ?(samples = 200) ~rng ~model g ~deadline =
  let best = ref None in
  for _ = 1 to samples do
    match random_feasible_assignment ~rng g ~deadline with
    | None -> ()
    | Some assignment ->
        let sequence = Shipped.random_sequence ~rng g in
        let sol =
          Solution.of_schedule ~model g (Schedule.make g ~sequence ~assignment)
        in
        (match !best with
        | Some b when b.Solution.sigma <= sol.Solution.sigma -> ()
        | _ -> best := Some sol)
  done;
  match !best with Some s -> s | None -> raise Shipped.No_feasible_sample
