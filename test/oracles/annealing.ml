open Batsched_numeric
open Batsched_taskgraph
open Batsched_sched
module Shipped = Batsched_baselines.Annealing
module Solution = Batsched_baselines.Solution

(* As in the shipped walk: 1 minute over the deadline costs as much as
   ~1 A of load. *)
let penalty_rate = 1000.0

type move = Move_swap of int | Move_repoint of int * int

(* A copy of the shipped neighbourhood draw; the two must consume the
   RNG identically for the walks to stay aligned. *)
let draw_move ~rng ~n ~m ~swap_ok =
  let repoint () =
    let i = Rng.int rng n in
    let j = Rng.int rng m in
    Move_repoint (i, j)
  in
  let rec attempt tries =
    if tries = 0 then repoint ()
    else if Rng.bool rng then
      if n < 2 then attempt (tries - 1)
      else begin
        let k = Rng.int rng (n - 1) in
        if swap_ok k then Move_swap k else attempt (tries - 1)
      end
    else repoint ()
  in
  attempt 8

type state = { sequence : int array; assignment : Assignment.t }

let energy_of ~model g ~deadline st =
  let sequence = Array.to_list st.sequence in
  let sched = Schedule.make g ~sequence ~assignment:st.assignment in
  let sigma = Schedule.battery_cost ~model g sched in
  let overrun = Float.max 0.0 (Schedule.finish_time g sched -. deadline) in
  (sigma +. (penalty_rate *. overrun), sigma, overrun <= 1e-9, sched)

let swap_ok g st k =
  (* positions k and k+1 may swap iff no edge between the two tasks *)
  let a = st.sequence.(k) and b = st.sequence.(k + 1) in
  not (List.mem b (Graph.succs g a))

let apply_move st = function
  | Move_swap k ->
      let seq = Array.copy st.sequence in
      let tmp = seq.(k) in
      seq.(k) <- seq.(k + 1);
      seq.(k + 1) <- tmp;
      { st with sequence = seq }
  | Move_repoint (i, j) -> { st with assignment = Assignment.set st.assignment i j }

let run ?(params = Shipped.default_params) ~rng ~model g ~deadline =
  let sol =
    match Batsched_baselines.Chowdhury.run ~model g ~deadline with
    | sol -> sol
    | exception Batsched_baselines.Chowdhury.Infeasible ->
        raise Shipped.No_feasible_state
  in
  let n = Graph.num_tasks g and m = Graph.num_points g in
  let st =
    ref
      { sequence = Array.of_list sol.Solution.schedule.Schedule.sequence;
        assignment = sol.Solution.schedule.Schedule.assignment }
  in
  let cur_energy = ref (let e, _, _, _ = energy_of ~model g ~deadline !st in e) in
  let best = ref sol in
  let temperature = ref params.Shipped.initial_temperature in
  let probe = Probe.local () in
  while !temperature > params.Shipped.temperature_floor do
    for _ = 1 to params.Shipped.steps_per_temperature do
      let mv = draw_move ~rng ~n ~m ~swap_ok:(fun k -> swap_ok g !st k) in
      match mv with
      | Move_repoint (i, j) when Assignment.column (!st).assignment i = j ->
          (* a no-op, accepted without evaluation as in the shipped walk *)
          probe.Probe.anneal_noops <- probe.Probe.anneal_noops + 1;
          probe.Probe.anneal_accepted <- probe.Probe.anneal_accepted + 1
      | _ ->
          let cand = apply_move !st mv in
          let e, sigma, feasible, sched = energy_of ~model g ~deadline cand in
          (* drawn even for downhill moves, as in the shipped walk *)
          let u = Rng.float rng 1.0 in
          let accept =
            e <= !cur_energy || u < exp ((!cur_energy -. e) /. !temperature)
          in
          if accept then begin
            probe.Probe.anneal_accepted <- probe.Probe.anneal_accepted + 1;
            st := cand;
            cur_energy := e;
            if feasible && sigma < !best.Solution.sigma then
              best := Solution.of_schedule ~model g sched
          end
          else probe.Probe.anneal_rejected <- probe.Probe.anneal_rejected + 1
    done;
    temperature := !temperature *. params.Shipped.cooling
  done;
  !best
