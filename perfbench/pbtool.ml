(* pbtool: the in-process half of the repo benchmark, driven by
   perfbench/run.py.  It never times the shipped binaries.  It

   - prints the Soak share of the serve traffic (soak-lines);
   - re-derives every binary output in-process, so that run.py can check
     it (check-solve, check-serve, check-fleet);
   - replays one workload's ops in-process, optionally recording a span
     around each call into a library layer (trace-solve, trace-serve,
     trace-fleet).

   check-* print one TSV row per input row; trace-* print one JSON object
   and, when traced, write their spans to the file named on the command
   line.  Spans are kept in memory and written once the replay ends. *)

open Batsched_taskgraph
open Batsched_sched
open Batsched_baselines
module Pool = Batsched_numeric.Pool
module Probe = Batsched_numeric.Probe
module Rng = Batsched_numeric.Rng
module Sink = Batsched_obs.Sink
module Events = Batsched_obs.Events
module Json = Batsched_obs.Json
module Request = Batsched_serve.Request
module Daemon = Batsched_serve.Daemon
module Soak = Batsched_serve.Soak
module Spec = Batsched_fleet.Spec
module Sampler = Batsched_fleet.Sampler
module Survival = Batsched_fleet.Survival
module Engine = Batsched_fleet.Engine
module Periodic = Batsched_battery.Periodic

let now_ns () = Monotonic_clock.now ()
let ms_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e6

let time_ms f =
  let t0 = now_ns () in
  let r = f () in
  (r, ms_since t0)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let read_lines path =
  String.split_on_char '\n' (read_file path) |> List.filter (( <> ) "")

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* --- spans ------------------------------------------------------------ *)

type span = {
  id : int;
  name : string;
  start_ns : int64;
  mutable end_ns : int64;
  parent : int;  (** id of the enclosing benchmark span, -1 at top level *)
  op : int;  (** index of the op being replayed *)
}

let tracing = ref false
let recorded : span list ref = ref []
let open_spans : span list ref = ref []
let next_id = ref 0
let current_op = ref (-1)

let span name f =
  if not !tracing then f ()
  else begin
    let parent = match !open_spans with s :: _ -> s.id | [] -> -1 in
    let s =
      { id = !next_id; name; start_ns = now_ns (); end_ns = 0L; parent;
        op = !current_op }
    in
    incr next_id;
    open_spans := s :: !open_spans;
    Fun.protect f ~finally:(fun () ->
        s.end_ns <- now_ns ();
        open_spans := List.tl !open_spans;
        recorded := s :: !recorded)
  end

(* One row per span: id, name, start, end, parent, op, track.  Sink
   spans (the library's own window/choose/iteration timers) have no
   recorded parent or op; run.py nests them by containment. *)
let write_spans path sink =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc "%d\t%s\t%Ld\t%Ld\t%d\t%d\t0\n" s.id s.name
            s.start_ns s.end_ns s.parent s.op)
        (List.rev !recorded);
      List.iteri
        (fun i (s : Sink.span) ->
          Printf.fprintf oc "%d\t%s\t%Ld\t%Ld\t-1\t-1\t%d\n" (!next_id + i)
            s.name s.start_ns
            (Int64.add s.start_ns s.dur_ns)
            s.track)
        (Sink.spans sink))

(* --- JSON output ------------------------------------------------------ *)

type j = N of float | I of int | S of string | L of j list | O of (string * j) list

let rec add_json b = function
  | N f ->
      Buffer.add_string b
        (if Float.is_finite f then Printf.sprintf "%.17g" f else "null")
  | I i -> Buffer.add_string b (string_of_int i)
  | S s -> Buffer.add_string b ("\"" ^ Json.escape_string s ^ "\"")
  | L l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          add_json b v)
        l;
      Buffer.add_char b ']'
  | O kv ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          add_json b (S k);
          Buffer.add_char b ':';
          add_json b v)
        kv;
      Buffer.add_char b '}'

let print_json v =
  let b = Buffer.create 4096 in
  add_json b v;
  print_endline (Buffer.contents b)

let probe_json () =
  let p = Probe.totals () in
  O
    (List.map (fun (name, get) -> (name, I (get p))) Probe.fields
    @ [ ("named", O (List.map (fun (k, v) -> (k, I v)) (Probe.named_counts p)))
      ])

(* Runs [f] with counters and GC statistics zeroed at entry; returns its
   result with the counter snapshot and the GC deltas. *)
let counted f =
  Probe.reset ();
  let g0 = Gc.quick_stat () in
  let r, wall_ms = time_ms f in
  let g1 = Gc.quick_stat () in
  ( r,
    [ ("wall_ms", N wall_ms);
      ("probe", probe_json ());
      ("minor_words", N (g1.Gc.minor_words -. g0.Gc.minor_words));
      ("major_gcs", I (g1.Gc.major_collections - g0.Gc.major_collections)) ] )

(* Every phase that creates a pool shuts it down and proves no worker
   domain survives it, so parked domains cannot tax a later phase. *)
let with_pool_checked n f =
  let pool = Pool.create n in
  Fun.protect
    ~finally:(fun () ->
      Pool.shutdown pool;
      if Pool.live_workers pool <> 0 then
        failwith "pool still has live worker domains after shutdown")
    (fun () -> f pool)

(* --- shared pieces ---------------------------------------------------- *)

(* The format detection basched applies to its FILE argument. *)
let parse_graph text =
  let is_tgff =
    String.split_on_char '\n' text
    |> List.exists (fun l ->
           let l = String.trim l in
           l <> "" && l.[0] = '@')
  in
  if is_tgff then (Tgff.of_string text).Tgff.graph else Textio.of_string text

let solve_model = Batsched_battery.Rakhmatov.model ()

(* basched's report, into a string. *)
let render_solve g (sol : Solution.t) =
  Format.asprintf "graph %s: %d tasks, %d design points, %d edges\n\
                   schedule: %a\nfinish:   %.2f min\nsigma:    %.1f mA*min\n"
    (Graph.label g) (Graph.num_tasks g) (Graph.num_points g)
    (Graph.num_edges g) (Schedule.pp g) sol.Solution.schedule
    sol.Solution.finish sol.Solution.sigma

(* A request's search exactly as the daemon runs it (same model, RNG
   seed and knobs), with a span around each layer's call. *)
let search ?(obs = Sink.noop) ?(events = Events.noop) (req : Request.t) =
  let s = req.Request.search in
  let g = req.Request.graph and deadline = req.Request.deadline in
  let model = Request.model s in
  let rng = Rng.create s.Request.seed in
  match s.Request.algo with
  | "annealing" ->
      let p = Annealing.default_params in
      let p =
        match s.Request.steps with
        | Some n -> { p with Annealing.steps_per_temperature = n }
        | None -> p
      in
      let params =
        match s.Request.t0 with
        | Some t0 -> { p with Annealing.initial_temperature = t0 }
        | None -> p
      in
      span "baselines.annealing" (fun () ->
          Annealing.run ~params ~events ~rng ~model g ~deadline)
  | "random" ->
      span "baselines.random" (fun () ->
          Random_search.run ?samples:s.Request.samples ~events ~rng ~model g
            ~deadline)
  | "iterative" | "iterative-ms" ->
      let cfg = Batsched.Config.make ~model ~obs ~events ~deadline () in
      let r =
        span "core.search" (fun () ->
            if s.Request.algo = "iterative-ms" then
              Batsched.Iterate.run_multistart ~rng ~starts:s.Request.starts cfg
                g
            else Batsched.Iterate.run cfg g)
      in
      span "sched.materialize" (fun () ->
          Solution.of_schedule ~model g r.Batsched.Iterate.schedule)
  | a -> failwith ("unknown algo: " ^ a)

(* The daemon's rendering of a result's sequence and design points. *)
let render_served g (sol : Solution.t) =
  let sch = sol.Solution.schedule in
  ( String.concat " "
      (List.map (fun i -> (Graph.task g i).Task.name) sch.Schedule.sequence),
    String.concat " "
      (List.map string_of_int (Assignment.to_list sch.Schedule.assignment)) )

let parse_request line =
  match Request.of_json line with
  | Ok (Request.Submit r) -> r
  | Ok (Request.Cancel _) -> failwith "unexpected cancel line"
  | Error msg -> failwith msg

let fail_msg = function
  | Failure m | Invalid_argument m -> m
  | e -> Printexc.to_string e

(* --- soak-lines N SEED ------------------------------------------------ *)

let soak_lines n seed = List.iter print_endline (Soak.mixed_lines ~n ~seed)

(* --- check-solve ROWS POOL ---------------------------------------------

   ROWS: path, deadline, printed schedule, printed finish, printed sigma.
   Out: ok|fail, the reference-[1] (Dp_energy) sigma, a message. *)

let task_id g name =
  let rec go i =
    if i >= Graph.num_tasks g then failwith ("unknown task " ^ name)
    else if (Graph.task g i).Task.name = name then i
    else go (i + 1)
  in
  go 0

let schedule_of_text g text =
  match String.split_on_char '/' text with
  | [ seq; pts ] ->
      let names = String.split_on_char ',' (String.trim seq) in
      let pts = String.split_on_char ',' (String.trim pts) in
      if List.length names <> List.length pts then
        failwith "sequence and design-point rows differ in length";
      let seq = List.map (task_id g) names in
      let cols = Array.make (Graph.num_tasks g) 0 in
      List.iter2
        (fun i p ->
          cols.(i) <- int_of_string (String.sub p 1 (String.length p - 1)) - 1)
        seq pts;
      (* raises unless [seq] is a precedence-respecting permutation *)
      Schedule.make g ~sequence:seq
        ~assignment:(Assignment.of_list g (Array.to_list cols))
  | _ -> failwith "schedule is not SEQUENCE / POINTS"

let check_solve rows npool =
  let rows =
    List.map
      (fun row ->
        match String.split_on_char '\t' row with
        | [ path; deadline; sched; finish; sigma ] ->
            ((path, float_of_string deadline), sched, finish, sigma)
        | _ -> failwith "check-solve: malformed row")
      rows
  in
  (* graphs and reference sigmas once per input, in parallel *)
  let inputs =
    Array.of_list (List.sort_uniq compare (List.map (fun (k, _, _, _) -> k) rows))
  in
  let refs =
    with_pool_checked npool (fun pool ->
        Pool.map_array pool
          (fun (path, deadline) ->
            let g = parse_graph (read_file path) in
            (g, (Dp_energy.run ~model:solve_model g ~deadline).Solution.sigma))
          inputs)
  in
  let ref_of = Hashtbl.create 64 in
  Array.iteri (fun i k -> Hashtbl.replace ref_of k refs.(i)) inputs;
  List.iter
    (fun (((_, deadline) as k), sched, finish, sigma) ->
      let g, dp = Hashtbl.find ref_of k in
      match schedule_of_text g sched with
      | exception e -> Printf.printf "fail\t%.17g\t%s\n" dp (fail_msg e)
      | s ->
          let sol = Solution.of_schedule ~model:solve_model g s in
          let problems =
            List.filter_map Fun.id
              [ (if Schedule.meets_deadline g s ~deadline then None
                 else Some "misses its deadline");
                (if Printf.sprintf "%.1f" sol.Solution.sigma = sigma then None
                 else
                   Some
                     (Printf.sprintf "re-costs to sigma %.1f, printed %s"
                        sol.Solution.sigma sigma));
                (if Printf.sprintf "%.2f" sol.Solution.finish = finish then None
                 else Some "finish time differs") ]
          in
          if problems = [] then Printf.printf "ok\t%.17g\t\n" dp
          else
            Printf.printf "fail\t%.17g\t%s\n" dp (String.concat "; " problems))
    rows

(* --- check-serve REQUESTS RESULTS POOL ----------------------------------

   REQUESTS: one wire line per served result; RESULTS: id, sigma,
   finish, sequence, points as the daemon printed them.  Each request is
   re-run single-shot with its seed and knobs; the daemon documents
   bit-identity with that run.  Out: ok|fail, Dp_energy sigma under the
   request's model, a message. *)

let check_serve req_path res_path npool =
  let reqs = Array.of_list (read_lines req_path) in
  let res = Array.of_list (read_lines res_path) in
  if Array.length reqs <> Array.length res then
    failwith "check-serve: request and result counts differ";
  let parsed =
    Array.map (fun l -> try Ok (parse_request l) with e -> Error e) reqs
  in
  let dp_cache = Hashtbl.create 64 in
  let dp =
    Array.map
      (function
        | Error _ -> Float.nan
        | Ok (r : Request.t) -> (
            let s = r.Request.search in
            let key =
              ( Textio.to_string r.Request.graph,
                r.Request.deadline,
                s.Request.model_name,
                s.Request.beta )
            in
            match Hashtbl.find_opt dp_cache key with
            | Some v -> v
            | None ->
                let v =
                  try
                    (Dp_energy.run ~model:(Request.model s) r.Request.graph
                       ~deadline:r.Request.deadline)
                      .Solution.sigma
                  with Dp_energy.Infeasible -> Float.nan
                in
                Hashtbl.replace dp_cache key v;
                v))
      parsed
  in
  let verdicts =
    with_pool_checked npool (fun pool ->
        Pool.map_array pool
          (fun i ->
            match (parsed.(i), String.split_on_char '\t' res.(i)) with
            | Error e, _ -> Error (fail_msg e)
            | Ok r, [ id; sigma; finish; seq; points ] -> (
                match search r with
                | exception e -> Error (fail_msg e)
                | sol ->
                    let seq', points' = render_served r.Request.graph sol in
                    if id <> r.Request.id then Error "result for another id"
                    else if
                      float_of_string sigma <> sol.Solution.sigma
                      || float_of_string finish <> sol.Solution.finish
                      || seq <> seq' || points <> points'
                    then
                      Error
                        (Printf.sprintf
                           "served sigma %s differs from single-shot %.17g"
                           sigma sol.Solution.sigma)
                    else Ok ())
            | Ok _, _ -> Error "malformed result row")
          (Array.init (Array.length reqs) Fun.id))
  in
  Array.iteri
    (fun i v ->
      match v with
      | Ok () -> Printf.printf "ok\t%.17g\t\n" dp.(i)
      | Error msg -> Printf.printf "fail\t%.17g\t%s\n" dp.(i) msg)
    verdicts

(* --- check-fleet SPEC DEVICES POOL SEED... ------------------------------

   Out: seed, checksum of a pool-1 Engine.run (jobs fan out over the
   pool; each job's own run is sequential). *)

let load_spec path =
  match Spec.of_file path with Ok s -> s | Error m -> failwith m

let check_fleet spec_path devices npool seeds =
  let spec = load_spec spec_path in
  let sums =
    with_pool_checked npool (fun pool ->
        Pool.map_array pool
          (fun seed ->
            Survival.checksum
              (Engine.run ~pool:Pool.sequential ~spec ~devices ~seed ()))
          (Array.of_list seeds))
  in
  List.iteri (fun i seed -> Printf.printf "%d\t%s\n" seed sums.(i)) seeds

(* --- replays ------------------------------------------------------------

   [replay ~first sink] runs one pass over a workload's ops, with spans
   when [tracing] is set and [sink] active; only the [first] pass
   records per-op results.  [replayed] runs the counted first pass,
   traced or plain; after a plain one it also measures the tracing
   overhead on warm tables: alternate traced and plain passes and
   compare the faster of each, so that neither side pays for cold
   caches. *)

let replayed ~traced ~spans_out replay =
  let sink = if traced then Sink.create () else Sink.noop in
  tracing := traced;
  let (), stats = counted (fun () -> replay ~first:true sink) in
  tracing := false;
  if traced then write_spans spans_out sink;
  let overhead =
    if traced then []
    else begin
      let pass traced =
        let sink = if traced then Sink.create () else Sink.noop in
        tracing := traced;
        let (), ms = time_ms (fun () -> replay ~first:false sink) in
        tracing := false;
        recorded := [];
        ms
      in
      let t1 = pass true in
      let p1 = pass false in
      let t2 = pass true in
      let p2 = pass false in
      let plain = Float.min p1 p2 in
      [ ("overhead_pct", N (100.0 *. (Float.min t1 t2 -. plain) /. plain)) ]
    end
  in
  stats @ overhead

(* --- trace-solve SPANS 0|1 MANIFEST -----------------------------------

   MANIFEST: path, deadline per op.  Replays basched's run (parse,
   Iterate.run, Solution.of_schedule, render) on files read up front. *)

let trace_solve manifest spans_out traced =
  let ops =
    read_lines manifest
    |> List.map (fun l ->
           match String.split_on_char '\t' l with
           | [ p; d ] -> (read_file p, float_of_string d)
           | _ -> failwith "trace-solve: malformed manifest row")
    |> Array.of_list
  in
  let n = Array.length ops in
  let op_ms = Array.make n 0.0 and sigmas = Array.make n "" in
  let first_ms = ref 0.0 in
  let replay ~first sink =
    Array.iteri
      (fun i (text, deadline) ->
        current_op := i;
        let t0 = now_ns () in
        let g = span "taskgraph.parse" (fun () -> parse_graph text) in
        let cfg =
          Batsched.Config.make ~model:solve_model ~obs:sink ~deadline ()
        in
        let r, ms =
          time_ms (fun () ->
              span "core.search" (fun () -> Batsched.Iterate.run cfg g))
        in
        let sol =
          span "sched.materialize" (fun () ->
              Solution.of_schedule ~model:solve_model g
                r.Batsched.Iterate.schedule)
        in
        ignore (span "bin.render" (fun () -> render_solve g sol));
        if first then begin
          if i = 0 then first_ms := ms;
          op_ms.(i) <- ms_since t0;
          sigmas.(i) <- Printf.sprintf "%.1f" sol.Solution.sigma
        end)
      ops
  in
  let stats = replayed ~traced ~spans_out replay in
  (* op 0's search was the first Iterate.run in this process; time warm
     repeats of it *)
  let text0, d0 = ops.(0) in
  let g0 = parse_graph text0 in
  let cfg0 = Batsched.Config.make ~model:solve_model ~deadline:d0 () in
  let warm_ms =
    median
      (List.init 5 (fun _ ->
           snd (time_ms (fun () -> ignore (Batsched.Iterate.run cfg0 g0)))))
  in
  print_json
    (O
       (stats
       @ [ ("ops", I n);
           ("first_call_ms", N !first_ms);
           ("warm_call_ms", N warm_ms);
           ("op_ms", L (Array.to_list (Array.map (fun v -> N v) op_ms)));
           ("sigma", L (Array.to_list (Array.map (fun s -> S s) sigmas))) ]))

(* --- trace-serve SPANS 0|1 REQUESTS POOL STREAM -----------------------

   Replays each request as the daemon runs it (parse, search with its
   knobs, result record) on the calling domain.  Untraced, it also
   measures the response stream's cost with in-process daemons and the
   pool's occupancy under saturation.  STREAM is a scratch file for
   response records. *)

let trace_serve req_path spans_out traced npool stream_out =
  let lines = Array.of_list (read_lines req_path) in
  let n = Array.length lines in
  let oc = open_out_bin stream_out in
  let ev = Events.create_channel oc in
  let algo_count = Hashtbl.create 8 in
  let failed = ref 0 in
  let replay ~first sink =
    Array.iteri
      (fun i line ->
        current_op := i;
        match span "serve.parse" (fun () -> Request.of_json line) with
        | Ok (Request.Submit req) -> (
            let algo = req.Request.search.Request.algo in
            if first then
              Hashtbl.replace algo_count algo
                (1 + Option.value ~default:0 (Hashtbl.find_opt algo_count algo));
            let tag = ("req", Events.S req.Request.id) in
            match search ~obs:sink ~events:(Events.with_tags ev [ tag ]) req with
            | sol ->
                span "obs.emit" (fun () ->
                    let seq, points = render_served req.Request.graph sol in
                    Events.emit ev "result"
                      [ tag; ("algo", Events.S algo);
                        ("model", Events.S req.Request.search.Request.model_name);
                        ("sigma", Events.F sol.Solution.sigma);
                        ("finish", Events.F sol.Solution.finish);
                        ("sequence", Events.S seq);
                        ("points", Events.S points) ])
            | exception _ -> if first then incr failed)
        | Ok (Request.Cancel _) | Error _ -> if first then incr failed)
      lines
  in
  let stats = replayed ~traced ~spans_out replay in
  let extra =
    if traced then []
    else begin
      (* response-stream cost: the same requests through an inline
         daemon, streaming to a file against Events.noop; best of two *)
      let daemon_ms ~pool ~events =
        let d = Daemon.create ~capacity:(Stdlib.max 1 n) ~pool ~events () in
        let (), ms =
          time_ms (fun () ->
              Array.iter (Daemon.handle_line d) lines;
              Daemon.drain d)
        in
        let c = Daemon.counts d in
        failed := !failed + (n - c.Daemon.completed);
        ms
      in
      let inline events = daemon_ms ~pool:Pool.sequential ~events in
      let noop1 = inline Events.noop in
      let stream1 = inline ev in
      let noop2 = inline Events.noop in
      let stream2 = inline ev in
      let serialize_ms =
        (Float.min stream1 stream2 -. Float.min noop1 noop2) /. float_of_int n
      in
      (* occupancy: every request submitted at once onto the daemon's
         pool *)
      Probe.reset ();
      let busy, sat_ms =
        with_pool_checked npool (fun pool ->
            let ms = daemon_ms ~pool ~events:ev in
            (Pool.worker_stats pool, ms))
      in
      let p = Probe.totals () in
      [ ("serialize_ms", N serialize_ms);
        ("saturation_ms", N sat_ms);
        ("busy_frac",
         L
           (Array.to_list
              (Array.map
                 (fun (s : Pool.worker_stat) ->
                   N (s.Pool.busy_s *. 1000.0 /. sat_ms))
                 busy)));
        ("pool_steals", I p.Probe.pool_steals);
        ("pool_regions", I p.Probe.pool_regions) ]
    end
  in
  Events.close ev;
  close_out oc;
  print_json
    (O
       (stats
       @ [ ("ops", I n);
           ("failed", I !failed);
           ("algos",
            O (Hashtbl.fold (fun k v acc -> (k, I v) :: acc) algo_count []))
         ]
       @ extra))

(* --- trace-fleet SPANS 0|1 SPEC DEVICES POOL STATS_POOL SEED... -------

   Replays each job's engine pipeline piecewise on the calling domain
   (spec parse, sampling, batch kernel, survival tally), then the whole
   Engine.run for comparison.  Untraced, it first runs each job as
   battsim --pool POOL does in-process and on a STATS_POOL-domain pool
   for occupancy, and afterwards times the kernel per model. *)

let block = 256

let kernel spec devs =
  let n = Array.length devs in
  let out = ref [] in
  let b = ref 0 in
  while !b < n do
    let count = Stdlib.min block (n - !b) in
    let lo = !b in
    out :=
      Periodic.Batch.run ~max_cycles:spec.Spec.horizon ~n:count
        ~device:(fun j -> devs.(lo + j).Sampler.periodic)
        ()
      :: !out;
    b := !b + count
  done;
  Array.concat (List.rev !out)

let trace_fleet spec_path devices npool nstats spans_out traced seeds =
  let seeds = Array.of_list seeds in
  let jobs = Array.length seeds in
  (* each job as battsim runs it (its own pool of [npool]), first, while
     this process is as fresh as battsim's; then the engine's pool
     occupancy at [nstats] domains *)
  let inproc =
    if traced then []
    else begin
      let ms =
        Array.map
          (fun seed ->
            let (), ms =
              time_ms (fun () ->
                  let spec = load_spec spec_path in
                  with_pool_checked npool (fun pool ->
                      ignore (Engine.run ~pool ~spec ~devices ~seed ())))
            in
            N ms)
          seeds
      in
      Probe.reset ();
      let busy_sum = Array.make nstats 0.0 in
      let spec = load_spec spec_path in
      Array.iter
        (fun seed ->
          with_pool_checked nstats (fun pool ->
              let (), ms =
                time_ms (fun () -> ignore (Engine.run ~pool ~spec ~devices ~seed ()))
              in
              Array.iteri
                (fun slot (s : Pool.worker_stat) ->
                  if slot < nstats then
                    busy_sum.(slot) <-
                      busy_sum.(slot) +. (s.Pool.busy_s *. 1000.0 /. ms))
                (Pool.worker_stats pool)))
        seeds;
      let p = Probe.totals () in
      [ ("inproc_ms", L (Array.to_list ms));
        ("busy_frac",
         L
           (Array.to_list
              (Array.map (fun v -> N (v /. float_of_int jobs)) busy_sum)));
        ("pool_steals", I p.Probe.pool_steals);
        ("pool_regions", I p.Probe.pool_regions) ]
    end
  in
  let failed = ref 0 in
  let spec0 = load_spec spec_path in
  let labels =
    Array.of_list (List.map (fun m -> m.Spec.label) spec0.Spec.models)
  in
  let replay ~first _sink =
    Array.iteri
      (fun i seed ->
        current_op := i;
        let spec = span "fleet.spec_parse" (fun () -> load_spec spec_path) in
        let base = Sampler.base ~seed in
        let devs =
          span "fleet.sample" (fun () ->
              Array.init devices (Sampler.device spec ~base))
        in
        let results = span "battery.periodic" (fun () -> kernel spec devs) in
        let tally =
          span "fleet.survival" (fun () ->
              let horizon = spec.Spec.horizon in
              let total = Survival.create ~horizon ~models:labels in
              let acc = Survival.create ~horizon ~models:labels in
              Array.iteri
                (fun j (r : Periodic.Batch.result) ->
                  Survival.observe acc
                    ~model_index:devs.(j).Sampler.model_index
                    r.Periodic.Batch.outcome)
                results;
              Survival.merge ~into:total acc;
              total)
        in
        let engine =
          span "fleet.engine" (fun () -> Engine.run ~spec ~devices ~seed ())
        in
        if first && Survival.checksum tally <> Survival.checksum engine then
          incr failed)
      seeds
  in
  let stats = replayed ~traced ~spans_out replay in
  (* kernel time per model, on the first job's devices *)
  let per_model =
    if traced then []
    else begin
      let base = Sampler.base ~seed:seeds.(0) in
      let devs = Array.init devices (Sampler.device spec0 ~base) in
      [ ("per_model_us",
         O
           (List.mapi
              (fun m label ->
                let mine =
                  Array.of_list
                    (List.filter
                       (fun d -> d.Sampler.model_index = m)
                       (Array.to_list devs))
                in
                let k = Array.length mine in
                let _, ms = time_ms (fun () -> kernel spec0 mine) in
                (label, N (if k = 0 then 0.0 else ms *. 1000.0 /. float_of_int k)))
              (Array.to_list labels))) ]
    end
  in
  print_json
    (O
       (stats
       @ [ ("ops", I jobs); ("devices", I devices); ("failed", I !failed) ]
       @ inproc @ per_model))

(* --- command line ------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: pbtool soak-lines N SEED | check-solve ROWS POOL | check-serve REQS \
     RESULTS POOL | check-fleet SPEC DEVICES POOL SEED... | trace-solve \
     SPANS 0|1 MANIFEST | trace-serve SPANS 0|1 REQS POOL STREAM | \
     trace-fleet SPANS 0|1 SPEC DEVICES POOL STATS_POOL SEED...";
  exit 2

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "soak-lines"; n; seed ] -> soak_lines (int_of_string n) (int_of_string seed)
  | [ "check-solve"; rows; pool ] -> check_solve (read_lines rows) (int_of_string pool)
  | [ "check-serve"; reqs; res; pool ] -> check_serve reqs res (int_of_string pool)
  | "check-fleet" :: spec :: devices :: pool :: seeds ->
      check_fleet spec (int_of_string devices) (int_of_string pool)
        (List.map int_of_string seeds)
  | cmd :: spans :: mode :: rest when mode = "0" || mode = "1" -> (
      (* 1: the traced replay; 0: the plain replay plus the tracing
         overhead and the workload's other in-process measurements *)
      let traced = mode = "1" in
      match (cmd, rest) with
      | "trace-solve", [ manifest ] -> trace_solve manifest spans traced
      | "trace-serve", [ reqs; pool; stream ] ->
          trace_serve reqs spans traced (int_of_string pool) stream
      | "trace-fleet", spec :: devices :: pool :: nstats :: seeds ->
          trace_fleet spec (int_of_string devices) (int_of_string pool)
            (int_of_string nstats) spans traced (List.map int_of_string seeds)
      | _ -> usage ())
  | _ -> usage ()
