module Pool = Batsched_numeric.Pool
module Rng = Batsched_numeric.Rng
module Events = Batsched_obs.Events
module Histogram = Batsched_numeric.Histogram
module Json = Batsched_obs.Json

(* Small feasible task graphs in the Textio format, spanning shapes
   (chain, diamond, fork-join) so the served mix is structurally
   heterogeneous, not just budget-heterogeneous. *)
let graphs =
  [| ( "chain4",
       "graph chain4\n\
        task A 600:2 350:3 150:5\n\
        task B 519:2 319:3 163:5\n\
        task C 417:2 250:3 120:5\n\
        task D 700:1 420:2 210:4\n\
        edge A B\n\
        edge B C\n\
        edge C D",
       14.0 );
     ( "diamond",
       "graph diamond\n\
        task A 500:1 300:2 150:3\n\
        task B 640:2 380:3 190:5\n\
        task C 560:2 330:3 170:5\n\
        task D 450:1 270:2 140:3\n\
        edge A B\n\
        edge A C\n\
        edge B D\n\
        edge C D",
       12.0 );
     ( "forkjoin5",
       "graph forkjoin5\n\
        task S 520:1 310:2 160:3\n\
        task A 610:2 360:3 180:5\n\
        task B 580:2 340:3 175:5\n\
        task C 660:2 390:3 200:5\n\
        task J 480:1 290:2 150:3\n\
        edge S A\n\
        edge S B\n\
        edge S C\n\
        edge A J\n\
        edge B J\n\
        edge C J",
       16.0 ) |]

let models = [| "rakhmatov"; "kibam"; "peukert"; "ideal" |]

let request_json ~id ~graph_src ~deadline ~algo ~model ~seed ~knobs =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"id\":\"%s\",\"deadline\":%g,\"algo\":\"%s\",\"model\":\"%s\",\"seed\":%d"
       id deadline algo model seed);
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf ",\"%s\":%g" k v))
    knobs;
  Buffer.add_string b ",\"graph\":\"";
  Buffer.add_string b (Json.escape_string graph_src);
  Buffer.add_string b "\"}";
  Buffer.contents b

(* The i-th request of the mix.  Budgets spread 10x within each
   algorithm family (annealing temperature ladders, random-search
   sample counts), which is exactly the skew that leaves the workers of
   a static split idle and that dealing jobs on demand absorbs. *)
let mixed_request ~rng i =
  let _, graph_src, deadline = graphs.(i mod Array.length graphs) in
  let model = models.(i mod Array.length models) in
  let seed = (i * 37) + Rng.int rng 1000 in
  let id = Printf.sprintf "r%d" i in
  match i mod 4 with
  | 0 ->
      (* light annealing: short ladder, few steps *)
      request_json ~id ~graph_src ~deadline ~algo:"annealing" ~model ~seed
        ~knobs:[ ("t0", 40.0); ("steps", 2.0) ]
  | 1 ->
      (* heavy annealing: 10x the t0 and steps of the light one *)
      request_json ~id ~graph_src ~deadline ~algo:"annealing" ~model ~seed
        ~knobs:[ ("t0", 400.0); ("steps", 20.0) ]
  | 2 ->
      request_json ~id ~graph_src ~deadline ~algo:"iterative" ~model ~seed
        ~knobs:[]
  | _ ->
      let samples = float_of_int (4 * (1 + (i mod 10))) in
      request_json ~id ~graph_src ~deadline ~algo:"random" ~model ~seed
        ~knobs:[ ("samples", samples) ]

let mixed_lines ~n ~seed =
  let rng = Rng.create seed in
  List.init n (fun i -> mixed_request ~rng i)

(* A fixture for smoke tests: [n - 1] mixed requests, one long-running
   annealing request, and a cancel for it right behind — if in-flight
   cancellation ever stops being prompt, the smoke run blows its
   timeout instead of passing silently. *)
let fixture_lines ~n ~seed =
  let quick = mixed_lines ~n:(Stdlib.max 0 (n - 1)) ~seed in
  let _, graph_src, deadline = graphs.(0) in
  let slow =
    request_json ~id:"slow-1" ~graph_src ~deadline ~algo:"annealing"
      ~model:"rakhmatov" ~seed:1
      ~knobs:[ ("t0", 1e7); ("steps", 5000.0) ]
  in
  quick @ [ slow; "{\"cancel\":\"slow-1\"}" ]

type result = {
  n : int;
  counts : Daemon.counts;
  wall_s : float;
  req_per_s : float;
  queue_p50_ms : float;
  queue_p99_ms : float;
  latency_p50_ms : float;
  latency_p99_ms : float;
}

let run ?(seed = 42) ?(events = Events.noop) ?capacity ~pool ~n () =
  let lines = mixed_lines ~n ~seed in
  let capacity = match capacity with Some c -> c | None -> n in
  let d = Daemon.create ~capacity ~stream_search:false ~pool ~events () in
  let t0 = Unix.gettimeofday () in
  List.iter (Daemon.handle_line d) lines;
  Daemon.drain d;
  let wall_s = Unix.gettimeofday () -. t0 in
  let q, l = Daemon.histograms d in
  { n;
    counts = Daemon.counts d;
    wall_s;
    req_per_s = (if wall_s > 0.0 then float_of_int n /. wall_s else 0.0);
    queue_p50_ms = Histogram.quantile q 50.0;
    queue_p99_ms = Histogram.quantile q 99.0;
    latency_p50_ms = Histogram.quantile l 50.0;
    latency_p99_ms = Histogram.quantile l 99.0 }

let result_to_json r =
  Printf.sprintf
    "{\"n\": %d, \"completed\": %d, \"cancelled\": %d, \"errors\": %d, \
     \"rejected\": %d, \"wall_s\": %.4f, \"req_per_s\": %.1f, \
     \"queue_p50_ms\": %.3f, \"queue_p99_ms\": %.3f, \"latency_p50_ms\": \
     %.3f, \"latency_p99_ms\": %.3f}"
    r.n r.counts.Daemon.completed r.counts.Daemon.cancelled
    r.counts.Daemon.errors r.counts.Daemon.rejected r.wall_s r.req_per_s
    r.queue_p50_ms r.queue_p99_ms r.latency_p50_ms r.latency_p99_ms
