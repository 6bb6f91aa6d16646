open Batsched_taskgraph
open Batsched_sched
open Batsched_baselines
module Pool = Batsched_numeric.Pool
module Rng = Batsched_numeric.Rng
module Events = Batsched_obs.Events
module Histogram = Batsched_numeric.Histogram

exception Cancelled

type counts = {
  accepted : int;
  completed : int;
  cancelled : int;
  errors : int;
  rejected : int;
}

type t = {
  pool : Pool.t;
  events : Events.t;
  capacity : int;
  stream_search : bool;
  inflight : int Atomic.t;
  (* [mu] guards the token table, the outcome counters and the local
     histograms; requests complete at most a few thousand times per
     second, so one lock is fine. *)
  mu : Mutex.t;
  cv : Condition.t;  (* signalled as requests finish; [drain] waits here *)
  tokens : (string, bool Atomic.t) Hashtbl.t;
  mutable n_accepted : int;
  mutable n_completed : int;
  mutable n_cancelled : int;
  mutable n_errors : int;
  mutable n_rejected : int;
  queue_delay_ms : Histogram.t;
  latency_ms : Histogram.t;
}

let create ?(capacity = 64) ?(stream_search = true) ~pool ~events () =
  if capacity < 1 then invalid_arg "Daemon.create: capacity < 1";
  { pool;
    events;
    capacity;
    stream_search;
    inflight = Atomic.make 0;
    mu = Mutex.create ();
    cv = Condition.create ();
    tokens = Hashtbl.create 64;
    n_accepted = 0;
    n_completed = 0;
    n_cancelled = 0;
    n_errors = 0;
    n_rejected = 0;
    queue_delay_ms = Histogram.create ();
    latency_ms = Histogram.create () }

let counts d =
  Mutex.lock d.mu;
  let c =
    { accepted = d.n_accepted;
      completed = d.n_completed;
      cancelled = d.n_cancelled;
      errors = d.n_errors;
      rejected = d.n_rejected }
  in
  Mutex.unlock d.mu;
  c

let histograms d =
  Mutex.lock d.mu;
  let q = Histogram.copy d.queue_delay_ms
  and l = Histogram.copy d.latency_ms in
  Mutex.unlock d.mu;
  (q, l)

let now () = Unix.gettimeofday ()

(* The per-request search, on a pool worker.  Cancellation tokens are
   polled where each algorithm can stop without disturbing its RNG
   lockstep: once per temperature level for annealing, once per
   iteration for the iterative heuristic; random search only checks on
   entry.  An untriggered token leaves every run bit-identical to a
   single-shot [basched] invocation with the same seed and knobs. *)
let run_search d (req : Request.t) token =
  let s = req.search in
  let g = req.graph and deadline = req.deadline in
  let model = Request.model s in
  let rng = Rng.create s.seed in
  let events =
    if d.stream_search then Events.with_tags d.events [ ("req", Events.S req.id) ]
    else Events.noop
  in
  let stop () = Atomic.get token in
  if stop () then raise Cancelled;
  match s.algo with
  | "annealing" ->
      let params =
        let p = Annealing.default_params in
        let p =
          match s.steps with
          | Some n -> { p with Annealing.steps_per_temperature = n }
          | None -> p
        in
        match s.t0 with
        | Some t0 -> { p with Annealing.initial_temperature = t0 }
        | None -> p
      in
      let sol =
        Annealing.run ~params ~events ~should_stop:stop ~rng ~model g ~deadline
      in
      if stop () then raise Cancelled;
      sol
  | "random" ->
      Random_search.run ?samples:s.samples ~events ~rng ~model g ~deadline
  | "iterative" | "iterative-ms" ->
      let cfg = Batsched.Config.make ~model ~events ~deadline () in
      let on_iteration _ = if stop () then raise Cancelled in
      let result =
        if s.algo = "iterative-ms" then
          Batsched.Iterate.run_multistart ~on_iteration ~rng ~starts:s.starts
            cfg g
        else Batsched.Iterate.run ~on_iteration cfg g
      in
      Solution.of_schedule ~model g result.Batsched.Iterate.schedule
  | a ->
      (* [Request.of_json] validates; unreachable for parsed requests *)
      failwith ("unknown algo: " ^ a)

let render_solution g (sol : Solution.t) =
  let names =
    List.map
      (fun i -> (Graph.task g i).Task.name)
      sol.Solution.schedule.Schedule.sequence
  in
  let points =
    List.map string_of_int
      (Assignment.to_list sol.Solution.schedule.Schedule.assignment)
  in
  (String.concat " " names, String.concat " " points)

let finish d token_id f =
  Mutex.lock d.mu;
  f d;
  Hashtbl.remove d.tokens token_id;
  ignore (Atomic.fetch_and_add d.inflight (-1));
  Condition.broadcast d.cv;
  Mutex.unlock d.mu

let run_request d (req : Request.t) token ~arrival =
  let t_start = now () in
  let queue_ms = (t_start -. arrival) *. 1000.0 in
  Mutex.lock d.mu;
  Histogram.record d.queue_delay_ms queue_ms;
  Mutex.unlock d.mu;
  if !Histogram.observing then
    Histogram.observe "serve/queue_delay_ms" queue_ms;
  let wall_ms () = (now () -. t_start) *. 1000.0 in
  let tag = ("req", Events.S req.id) in
  let bump =
    match run_search d req token with
    | sol ->
        let seq, points = render_solution req.graph sol in
        Events.emit d.events "result"
          [ tag;
            ("algo", Events.S req.search.algo);
            ("model", Events.S req.search.model_name);
            ("sigma", Events.F sol.Solution.sigma);
            ("finish", Events.F sol.Solution.finish);
            ("queue_ms", Events.F queue_ms);
            ("wall_ms", Events.F (wall_ms ()));
            ("sequence", Events.S seq);
            ("points", Events.S points) ];
        fun d -> d.n_completed <- d.n_completed + 1
    | exception Cancelled ->
        Events.emit d.events "cancelled"
          [ tag; ("wall_ms", Events.F (wall_ms ())) ];
        fun d -> d.n_cancelled <- d.n_cancelled + 1
    | exception e ->
        Events.emit d.events "error"
          [ tag; ("message", Events.S (Printexc.to_string e)) ];
        fun d -> d.n_errors <- d.n_errors + 1
  in
  let lat = wall_ms () +. queue_ms in
  if !Histogram.observing then Histogram.observe "serve/latency_ms" lat;
  (* latency must land before [finish] broadcasts, or [drain] can
     observe inflight = 0 while the last sample is still in flight *)
  finish d req.id (fun d ->
      Histogram.record d.latency_ms lat;
      bump d)

let submit d (req : Request.t) =
  (* bounded admission: the daemon never holds more than [capacity]
     requests queued-or-running; overflow is refused immediately so
     the producer sees backpressure instead of unbounded latency *)
  let before = Atomic.fetch_and_add d.inflight 1 in
  if before >= d.capacity then begin
    ignore (Atomic.fetch_and_add d.inflight (-1));
    Mutex.lock d.mu;
    d.n_rejected <- d.n_rejected + 1;
    Mutex.unlock d.mu;
    Events.emit d.events "overloaded"
      [ ("req", Events.S req.id); ("capacity", Events.I d.capacity) ];
    `Rejected
  end
  else begin
    let token =
      Mutex.lock d.mu;
      d.n_accepted <- d.n_accepted + 1;
      let tok =
        match Hashtbl.find_opt d.tokens req.id with
        | Some tok -> tok (* a cancel already arrived for this id *)
        | None ->
            let tok = Atomic.make false in
            Hashtbl.add d.tokens req.id tok;
            tok
      in
      Mutex.unlock d.mu;
      tok
    in
    Events.emit d.events "accepted"
      [ ("req", Events.S req.id);
        ("algo", Events.S req.search.algo);
        ("queued", Events.I before) ];
    let arrival = now () in
    Pool.submit d.pool (fun () -> run_request d req token ~arrival);
    `Accepted
  end

let cancel d id =
  Mutex.lock d.mu;
  (match Hashtbl.find_opt d.tokens id with
  | Some tok -> Atomic.set tok true
  | None ->
      (* not in flight: either already finished (cancel is then a
         no-op) or not yet submitted — pre-register a fired token so a
         later submit is cancelled on entry *)
      Hashtbl.add d.tokens id (Atomic.make true));
  Mutex.unlock d.mu

let handle_line d line =
  let line = String.trim line in
  if line = "" then ()
  else
    match Request.of_json line with
    | Ok (Request.Submit req) -> ignore (submit d req)
    | Ok (Request.Cancel id) -> cancel d id
    | Error msg ->
        Mutex.lock d.mu;
        d.n_errors <- d.n_errors + 1;
        Mutex.unlock d.mu;
        Events.emit d.events "parse_error" [ ("message", Events.S msg) ]

let drain d =
  Mutex.lock d.mu;
  while Atomic.get d.inflight > 0 do
    Condition.wait d.cv d.mu
  done;
  Mutex.unlock d.mu

let run_channel d ic =
  let t0 = now () in
  (try
     while true do
       handle_line d (input_line ic)
     done
   with End_of_file -> ());
  drain d;
  let c = counts d in
  let wall_s = now () -. t0 in
  Events.emit d.events "serve_done"
    [ ("accepted", Events.I c.accepted);
      ("completed", Events.I c.completed);
      ("cancelled", Events.I c.cancelled);
      ("errors", Events.I c.errors);
      ("rejected", Events.I c.rejected);
      ("wall_s", Events.F wall_s);
      ("req_per_s",
       Events.F (if wall_s > 0.0 then float_of_int c.accepted /. wall_s else 0.0))
    ];
  c
