open Batsched_numeric
open Batsched_taskgraph
open Batsched_sched
module Events = Batsched_obs.Events

exception No_feasible_sample

(* Convergence records mirror the annealing ones: emission reads the
   draw index and the best sigma, never the RNG, so an instrumented
   run draws exactly the same stream as a bare one. *)
let emit_start events ~samples =
  if Events.is_active events then
    Events.emit events "random_start"
      [ ("mode", Events.S "delta"); ("samples", Events.I samples) ]

let emit_best events ~sample ~best_sigma =
  if Events.is_active events then
    Events.emit events "sample"
      [ ("sample", Events.I sample); ("samples", Events.I sample);
        ("best_sigma", Events.F best_sigma) ]

let random_sequence ~rng g =
  let n = Graph.num_tasks g in
  let remaining = Array.init n (fun i -> List.length (Graph.preds g i)) in
  let scheduled = Array.make n false in
  let rec step acc count =
    if count = n then List.rev acc
    else begin
      let ready =
        List.filter
          (fun v -> (not scheduled.(v)) && remaining.(v) = 0)
          (List.init n Fun.id)
      in
      let v = Rng.pick rng ready in
      scheduled.(v) <- true;
      List.iter (fun w -> remaining.(w) <- remaining.(w) - 1) (Graph.succs g v);
      step (v :: acc) (count + 1)
    end
  in
  step [] 0

let random_feasible_assignment ~rng g ~deadline =
  let n = Graph.num_tasks g and m = Graph.num_points g in
  let duration i j = (Task.point (Graph.task g i) j).Task.duration in
  let columns = Array.init n (fun _ -> Rng.int rng m) in
  let total () =
    Kahan.sum_fn n (fun i -> duration i columns.(i))
  in
  (* Repair: while over deadline, speed up a random slowable task. *)
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

(* Each sample is costed by re-seating one reused evaluator: no
   per-sample schedule validation (the ready-list sampler yields
   topological orders by construction, so [unsafe_make] applies),
   profile allocation, or solution record.  Only the winner is
   materialized, through the full model path.  It draws exactly what
   the seed's schedule-per-sample sampler drew; that sampler survives
   as the test oracle. *)
let run ?(samples = 200) ?(events = Events.noop) ~rng ~model g ~deadline =
  emit_start events ~samples;
  let ev = ref None in
  let best = ref None in
  for sample = 1 to samples do
    match random_feasible_assignment ~rng g ~deadline with
    | None -> ()
    | Some assignment ->
        let sequence = random_sequence ~rng g in
        let sched = Schedule.unsafe_make g ~sequence ~assignment in
        let e =
          match !ev with
          | Some e ->
              Eval.load e sched;
              e
          | None ->
              let e = Eval.make ~model g sched in
              ev := Some e;
              e
        in
        let sigma = Eval.sigma e in
        (match !best with
        | Some (best_sigma, _) when best_sigma <= sigma -> ()
        | _ ->
            best := Some (sigma, sched);
            emit_best events ~sample ~best_sigma:sigma)
  done;
  match !best with
  | Some (_, sched) -> Solution.of_schedule ~model g sched
  | None -> raise No_feasible_sample
