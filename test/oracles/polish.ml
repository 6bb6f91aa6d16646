open Batsched_taskgraph
open Batsched_sched
module Config = Batsched.Config
module Iterate = Batsched.Iterate

let swap_at sequence k =
  (* swap positions k and k+1; None if out of range *)
  let arr = Array.of_list sequence in
  if k < 0 || k + 1 >= Array.length arr then None
  else begin
    let tmp = arr.(k) in
    arr.(k) <- arr.(k + 1);
    arr.(k + 1) <- tmp;
    Some (Array.to_list arr)
  end

let cost (cfg : Config.t) g sched =
  Schedule.battery_cost ~model:cfg.Config.model g sched

let two_swap ?(max_rounds = 10) (cfg : Config.t) g sched =
  let n = Graph.num_tasks g in
  let best = ref sched in
  let best_cost = ref (cost cfg g sched) in
  let continue = ref true in
  let rounds = ref 0 in
  while !continue && !rounds < max_rounds do
    incr rounds;
    continue := false;
    (* adjacent transpositions on the sequence, assignment fixed *)
    for k = 0 to n - 2 do
      match swap_at !best.Schedule.sequence k with
      | None -> ()
      | Some sequence ->
          if Analysis.is_topological g sequence then begin
            let trial =
              Schedule.make g ~sequence
                ~assignment:!best.Schedule.assignment
            in
            let c = cost cfg g trial in
            if c < !best_cost -. 1e-9 then begin
              best := trial;
              best_cost := c;
              continue := true
            end
          end
    done;
    (* re-fit the design points to the improved sequence *)
    if !continue then begin
      let windows =
        Batsched.Window.evaluate cfg g ~sequence:!best.Schedule.sequence
      in
      let w = windows.Batsched.Window.best in
      if w.Batsched.Window.sigma < !best_cost -. 1e-9 then begin
        best :=
          Schedule.make g ~sequence:!best.Schedule.sequence
            ~assignment:w.Batsched.Window.assignment;
        best_cost := w.Batsched.Window.sigma
      end
    end
  done;
  !best

let polish ?max_rounds (cfg : Config.t) g (result : Iterate.result) =
  let sched = two_swap ?max_rounds cfg g result.Iterate.schedule in
  let sigma = cost cfg g sched in
  if sigma < result.Iterate.sigma then
    { result with
      Iterate.schedule = sched;
      sigma;
      finish = Schedule.finish_time g sched }
  else result
