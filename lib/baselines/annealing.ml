open Batsched_numeric
open Batsched_taskgraph
open Batsched_sched
module Events = Batsched_obs.Events

exception No_feasible_state

type params = {
  initial_temperature : float;
  cooling : float;
  steps_per_temperature : int;
  temperature_floor : float;
}

let default_params =
  { initial_temperature = 2000.0;
    cooling = 0.9;
    steps_per_temperature = 60;
    temperature_floor = 1.0 }

let check_params p =
  if not (p.initial_temperature > 0.0) then invalid_arg "Annealing: bad T0";
  if not (p.cooling > 0.0 && p.cooling < 1.0) then invalid_arg "Annealing: bad cooling";
  if p.steps_per_temperature < 1 then invalid_arg "Annealing: bad steps";
  if not (p.temperature_floor > 0.0) then invalid_arg "Annealing: bad floor"

(* Deadline overruns are priced steeply so the walk is pulled back into
   the feasible region: 1 minute over costs as much as ~1 A of load. *)
let penalty_rate = 1000.0

type move = Move_swap of int | Move_repoint of int * int

(* One neighbourhood draw.  The control flow — and therefore the RNG
   stream — replicates the original try-swap-or-repoint attempt loop
   exactly, so walks replay bit-for-bit under existing seeds: each
   attempt draws a bool; heads draws a swap position and retries (no
   further draws) when the swap would violate precedence; tails draws
   (task, column); after 8 failed attempts a repoint is forced. *)
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

(* A repoint onto the task's current column is a no-op: the candidate
   equals the current state, its (deterministic) energy equals the
   current energy bit-for-bit, so the seed's full-evaluation walk always
   accepted it without consuming a Metropolis draw and never improved
   the best.  The walk therefore skips the evaluation entirely and books
   it as an accepted step — observably identical, minus the wasted
   sigma evaluation. *)

let start_solution ~model g ~deadline =
  match Chowdhury.run ~model g ~deadline with
  | sol -> sol
  | exception Chowdhury.Infeasible -> raise No_feasible_state

(* Convergence records.  Emission reads only the walk's outputs (probe
   counter deltas, energies, the best sigma) and never touches the RNG,
   so the event stream cannot perturb the walk — pinned down by the
   bit-identity property tests.  With events off the hot loop carries
   no extra bookkeeping: the per-level snapshots below are guarded. *)

let emit_start events ~n ~m ~params =
  if Events.is_active events then
    Events.emit events "anneal_start"
      [ ("mode", Events.S "delta"); ("n", Events.I n); ("m", Events.I m);
        ("t0", Events.F params.initial_temperature);
        ("cooling", Events.F params.cooling);
        ("floor", Events.F params.temperature_floor);
        ("steps_per_temp", Events.I params.steps_per_temperature) ]

let emit_level events ~level ~temperature ~evals ~lvl_acc ~lvl_rej
    ~cur_energy ~best_sigma =
  let attempts = lvl_acc + lvl_rej in
  let rate =
    if attempts = 0 then 1.0
    else float_of_int lvl_acc /. float_of_int attempts
  in
  Events.emit events "anneal_level"
    [ ("mode", Events.S "delta"); ("level", Events.I level);
      ("temp", Events.F temperature); ("evals", Events.I evals);
      ("accepted", Events.I lvl_acc); ("rejected", Events.I lvl_rej);
      ("accept_rate", Events.F rate); ("cur_energy", Events.F cur_energy);
      ("best_sigma", Events.F best_sigma) ]

let emit_done events ~evals ~best_sigma =
  if Events.is_active events then
    Events.emit events "anneal_done"
      [ ("mode", Events.S "delta"); ("evals", Events.I evals);
        ("best_sigma", Events.F best_sigma) ]

(* The walk runs on the incremental evaluator: O(1) per swap
   candidate, O(position) per repoint, no schedule or profile
   allocation.  Only the best feasible states (a handful per run) are
   materialized as schedules, through the full-model
   [Solution.of_schedule], so the reported sigma always comes from the
   full path.  The seed's walk, which costs every candidate through a
   fresh schedule and the full model, survives as the test oracle.  The
   two draw one Metropolis uniform per evaluated candidate whether or
   not the move is downhill, so the RNG stream position never depends
   on how the energies were computed: the walks stay move-for-move
   aligned even when the two paths disagree by an ulp at an exact tie
   (routine on graphs with identical parallel tasks, where a swap
   leaves sigma unchanged bit-for-bit on one path and one ulp off on
   the other). *)
let run ?(params = default_params) ?(events = Events.noop)
    ?(should_stop = fun () -> false) ~rng ~model g ~deadline =
  check_params params;
  let sol = start_solution ~model g ~deadline in
  let n = Graph.num_tasks g and m = Graph.num_points g in
  let ev = Eval.make ~model g sol.Solution.schedule in
  let energy sigma finish =
    sigma +. (penalty_rate *. Float.max 0.0 (finish -. deadline))
  in
  let cur_energy = ref (energy (Eval.sigma ev) (Eval.finish ev)) in
  let best = ref sol in
  let temperature = ref params.initial_temperature in
  let probe = Probe.local () in
  let ev_on = Events.is_active events in
  emit_start events ~n ~m ~params;
  let acc0 = probe.Probe.anneal_accepted
  and rej0 = probe.Probe.anneal_rejected in
  let level = ref 0 in
  while !temperature > params.temperature_floor && not (should_stop ()) do
    let lacc = if ev_on then probe.Probe.anneal_accepted else 0
    and lrej = if ev_on then probe.Probe.anneal_rejected else 0 in
    for _ = 1 to params.steps_per_temperature do
      let mv = draw_move ~rng ~n ~m ~swap_ok:(fun k -> Eval.swap_allowed ev k) in
      match mv with
      | Move_repoint (i, j) when Eval.column ev i = j ->
          probe.Probe.anneal_noops <- probe.Probe.anneal_noops + 1;
          probe.Probe.anneal_accepted <- probe.Probe.anneal_accepted + 1
      | _ ->
          let sigma, finish =
            match mv with
            | Move_swap k -> Eval.try_swap ev k
            | Move_repoint (i, j) -> Eval.try_repoint ev ~task:i ~col:j
          in
          let overrun = Float.max 0.0 (finish -. deadline) in
          let e = sigma +. (penalty_rate *. overrun) in
          (* unconditional draw: see [run] *)
          let u = Rng.float rng 1.0 in
          let accept =
            e <= !cur_energy || u < exp ((!cur_energy -. e) /. !temperature)
          in
          if accept then begin
            probe.Probe.anneal_accepted <- probe.Probe.anneal_accepted + 1;
            Eval.commit ev;
            cur_energy := e;
            if overrun <= 1e-9 && sigma < !best.Solution.sigma then begin
              (* confirm through the full path before adopting: the
                 delta sigma can sit an ulp below the full value, and
                 on graphs with identical tasks an exact tie must stay
                 a tie (the full-evaluation walk keeps the earlier best) *)
              let sol = Solution.of_schedule ~model g (Eval.to_schedule ev) in
              if sol.Solution.sigma < !best.Solution.sigma then best := sol
            end
          end
          else begin
            probe.Probe.anneal_rejected <- probe.Probe.anneal_rejected + 1;
            Eval.discard ev
          end
    done;
    if ev_on then
      emit_level events ~level:!level ~temperature:!temperature
        ~evals:
          (probe.Probe.anneal_accepted + probe.Probe.anneal_rejected - acc0
         - rej0)
        ~lvl_acc:(probe.Probe.anneal_accepted - lacc)
        ~lvl_rej:(probe.Probe.anneal_rejected - lrej)
        ~cur_energy:!cur_energy ~best_sigma:(!best).Solution.sigma;
    incr level;
    temperature := !temperature *. params.cooling
  done;
  emit_done events
    ~evals:
      (probe.Probe.anneal_accepted + probe.Probe.anneal_rejected - acc0 - rej0)
    ~best_sigma:(!best).Solution.sigma;
  !best
