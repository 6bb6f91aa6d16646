open Batsched_sched
module Log = Batsched_obs.Log
module Sink = Batsched_obs.Sink
module Events = Batsched_obs.Events

type iteration = {
  index : int;
  sequence : int list;
  windows : Window.t;
  weighted_sequence : int list;
  weighted_sigma : float;
  min_sigma : float;
}

type result = {
  iterations : iteration list;
  schedule : Schedule.t;
  sigma : float;
  finish : float;
}

type incumbent = {
  inc_sigma : float;
  inc_sequence : int list;
  inc_assignment : Assignment.t;
}

let cost (cfg : Config.t) g ~sequence ~assignment =
  Schedule.battery_cost ~model:cfg.Config.model g
    (Schedule.make g ~sequence ~assignment)

let improve incumbent candidate =
  if candidate.inc_sigma < incumbent.inc_sigma then candidate else incumbent

(* The paper threads MinBCost (and the matching assignment) through all
   iterations: EvaluateWindows only ever improves the incumbent, which
   is why Table 3's "Min sigma" column is monotone and the final
   iteration repeats the previous value. *)
let run_from ~on_iteration ~initial (cfg : Config.t) g =
  (* One "iteration" span per loop pass; the tail call happens outside
     the span so successive iterations are siblings on the trace track,
     not a nest. *)
  let iteration_body ~index ~sequence ~incumbent =
    let probe = Batsched_numeric.Probe.local () in
    probe.Batsched_numeric.Probe.iterations <-
      probe.Batsched_numeric.Probe.iterations + 1;
    let windows = Window.evaluate cfg g ~sequence in
    let best_w = windows.Window.best in
    let incumbent =
      improve incumbent
        { inc_sigma = best_w.Window.sigma;
          inc_sequence = sequence;
          inc_assignment = best_w.Window.assignment }
    in
    let weighted_sequence =
      Priorities.weighted_sequence g incumbent.inc_assignment
    in
    let weighted_sigma =
      cost cfg g ~sequence:weighted_sequence
        ~assignment:incumbent.inc_assignment
    in
    let incumbent =
      improve incumbent
        { inc_sigma = weighted_sigma;
          inc_sequence = weighted_sequence;
          inc_assignment = incumbent.inc_assignment }
    in
    let it =
      { index;
        sequence;
        windows;
        weighted_sequence;
        weighted_sigma;
        min_sigma = incumbent.inc_sigma }
    in
    Log.debug (fun () ->
        Printf.sprintf
          "iteration %d: window best %.1f, weighted %.1f, incumbent %.1f"
          index best_w.Window.sigma weighted_sigma incumbent.inc_sigma);
    if Events.is_active cfg.Config.events then
      Events.emit cfg.Config.events "iteration"
        [ ("index", Events.I index);
          ("window_best", Events.F best_w.Window.sigma);
          ("weighted_sigma", Events.F weighted_sigma);
          ("min_sigma", Events.F incumbent.inc_sigma) ];
    on_iteration it;
    (it, incumbent)
  in
  let rec loop ~index ~sequence ~incumbent ~prev_cost acc =
    let it, incumbent =
      Sink.with_span cfg.Config.obs "iteration" (fun () ->
          iteration_body ~index ~sequence ~incumbent)
    in
    let acc = it :: acc in
    if incumbent.inc_sigma >= prev_cost || index >= cfg.Config.max_iterations
    then (List.rev acc, incumbent)
    else
      loop ~index:(index + 1) ~sequence:it.weighted_sequence ~incumbent
        ~prev_cost:incumbent.inc_sigma acc
  in
  let start =
    { inc_sigma = Float.infinity;
      inc_sequence = initial;
      inc_assignment = Assignment.all_lowest_power g }
  in
  let iterations, incumbent =
    loop ~index:1 ~sequence:initial ~incumbent:start ~prev_cost:Float.infinity []
  in
  let schedule =
    Schedule.make g ~sequence:incumbent.inc_sequence
      ~assignment:incumbent.inc_assignment
  in
  { iterations;
    schedule;
    sigma = incumbent.inc_sigma;
    finish = Schedule.finish_time g schedule }

let run ?(on_iteration = fun _ -> ()) (cfg : Config.t) g =
  run_from ~on_iteration ~initial:(Priorities.sequence_dec_energy g) cfg g

(* A uniformly random linearization by randomized ready-list choice.
   The ready list is maintained explicitly (sorted by id, matching the
   ascending scan of the previous [List.filter]-per-step version so
   the streams coincide seed for seed) and updated as predecessors
   retire — O(ready + out-degree) per step instead of O(n). *)
let random_sequence ~rng g =
  let open Batsched_taskgraph in
  let n = Graph.num_tasks g in
  let remaining = Array.init n (fun i -> List.length (Graph.preds g i)) in
  let rec insert v = function
    | w :: rest when w < v -> w :: insert v rest
    | rest -> v :: rest
  in
  let initial_ready =
    List.filter (fun v -> remaining.(v) = 0) (List.init n Fun.id)
  in
  let rec step acc count ready =
    if count = n then List.rev acc
    else begin
      let v = Batsched_numeric.Rng.pick rng ready in
      let ready = List.filter (fun w -> w <> v) ready in
      let ready =
        List.fold_left
          (fun ready w ->
            remaining.(w) <- remaining.(w) - 1;
            if remaining.(w) = 0 then insert w ready else ready)
          ready (Graph.succs g v)
      in
      step (v :: acc) (count + 1) ready
    end
  in
  step [] 0 initial_ready

let run_multistart ?(on_iteration = fun _ -> ()) ~rng ~starts
    (cfg : Config.t) g =
  if starts < 1 then invalid_arg "Iterate.run_multistart: starts < 1";
  (* Seeds are drawn sequentially from [rng] before any fan-out, so
     the seed list is independent of the pool size. *)
  let random_seeds =
    List.init (starts - 1) (fun _ -> random_sequence ~rng g)
  in
  let seeds = Priorities.sequence_dec_energy g :: random_seeds in
  if Events.is_active cfg.Config.events then
    Events.emit cfg.Config.events "multistart_start"
      [ ("starts", Events.I (List.length seeds));
        ("pool", Events.I (Batsched_numeric.Pool.size cfg.Config.pool)) ];
  let runs =
    Batsched_numeric.Pool.map_list cfg.Config.pool
      (fun (trial, initial) ->
        Sink.with_span cfg.Config.obs "start" (fun () ->
            (* the clock is only read with events on, and emission never
               touches the RNG, so instrumented and uninstrumented runs
               stay bit-identical (property-tested) *)
            let ev_on = Events.is_active cfg.Config.events in
            let t0 = if ev_on then Events.now_ns () else 0L in
            let r = run_from ~on_iteration ~initial cfg g in
            (* per-trial convergence record; [Events.emit] is
               mutex-protected, so pool workers may emit freely *)
            if ev_on then begin
              let dur_ms =
                Int64.to_float (Int64.sub (Events.now_ns ()) t0) /. 1e6
              in
              Events.emit cfg.Config.events "trial"
                [ ("trial", Events.I trial);
                  ("sigma", Events.F r.sigma);
                  ("finish", Events.F r.finish);
                  ("iterations", Events.I (List.length r.iterations));
                  ("worker", Events.I (Batsched_numeric.Pool.worker_index ()));
                  ("dur_ms", Events.F dur_ms) ]
            end;
            r))
      (List.mapi (fun i s -> (i, s)) seeds)
  in
  match runs with
  | [] -> assert false
  | first :: rest ->
      (* strict [<] keeps the earlier seed on ties — deterministic and
         independent of evaluation order, hence of the pool size *)
      let best =
        List.fold_left (fun acc r -> if r.sigma < acc.sigma then r else acc)
          first rest
      in
      if Events.is_active cfg.Config.events then
        Events.emit cfg.Config.events "multistart_done"
          [ ("starts", Events.I (List.length seeds));
            ("best_sigma", Events.F best.sigma) ];
      best

let schedule_of_iteration g it =
  let best = it.windows.Window.best in
  let sequence =
    if it.weighted_sigma < best.Window.sigma then it.weighted_sequence
    else it.sequence
  in
  Schedule.make g ~sequence ~assignment:best.Window.assignment
