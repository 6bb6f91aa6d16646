open Batsched_taskgraph
open Batsched_sched
module Events = Batsched_obs.Events

(* One convergence record per improvement round; reads only the
   round's outcome, never feeds back into the sweep. *)
let emit_round events ~round ~cost ~improved =
  if Events.is_active events then
    Events.emit events "polish_round"
      [ ("mode", Events.S "delta"); ("round", Events.I round);
        ("cost", Events.F cost); ("improved", Events.B improved) ]

let cost (cfg : Config.t) g sched =
  Schedule.battery_cost ~model:cfg.Config.model g sched

(* A first-improvement sweep on the incremental evaluator: the
   precedence check is O(out-degree), a candidate swap is O(1) model
   terms, and nothing is allocated until the final schedule is
   materialized.  The window re-fit stays on the full path (it costs
   whole assignments, not moves); its result re-seats the evaluator.
   The seed's pass, which builds and fully costs a schedule per
   candidate, survives as the test oracle. *)
let two_swap ?(max_rounds = 10) (cfg : Config.t) g sched =
  if max_rounds < 1 then invalid_arg "Polish.two_swap: max_rounds < 1";
  Batsched_obs.Sink.with_span cfg.Config.obs "polish" @@ fun () ->
  let n = Graph.num_tasks g in
  let ev = Eval.make ~model:cfg.Config.model g sched in
  let best_cost = ref (Eval.sigma ev) in
  let continue = ref true in
  let rounds = ref 0 in
  while !continue && !rounds < max_rounds do
    incr rounds;
    continue := false;
    for k = 0 to n - 2 do
      if Eval.swap_allowed ev k then begin
        let c, _ = Eval.try_swap ev k in
        if c < !best_cost -. 1e-9 then begin
          Eval.commit ev;
          best_cost := c;
          continue := true
        end
        else Eval.discard ev
      end
    done;
    if !continue then begin
      let windows = Window.evaluate cfg g ~sequence:(Eval.sequence ev) in
      let w = windows.Window.best in
      if w.Window.sigma < !best_cost -. 1e-9 then begin
        Eval.load ev
          (Schedule.unsafe_make g ~sequence:(Eval.sequence ev)
             ~assignment:w.Window.assignment);
        best_cost := Eval.sigma ev
      end
    end;
    emit_round cfg.Config.events ~round:!rounds
      ~cost:!best_cost ~improved:!continue
  done;
  Eval.to_schedule ev

let polish ?max_rounds (cfg : Config.t) g (result : Iterate.result) =
  let sched = two_swap ?max_rounds cfg g result.Iterate.schedule in
  let sigma = cost cfg g sched in
  if sigma < result.Iterate.sigma then
    { result with
      Iterate.schedule = sched;
      sigma;
      finish = Schedule.finish_time g sched }
  else result
