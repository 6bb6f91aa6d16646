(* The serve daemon: request parsing, end-to-end batching on the
   domain pool, bit-identity with single-shot runs, in-flight
   cancellation, and bounded admission. *)

module Pool = Batsched_numeric.Pool
module Rng = Batsched_numeric.Rng
module Events = Batsched_obs.Events
module Request = Batsched_serve.Request
module Daemon = Batsched_serve.Daemon
module Soak = Batsched_serve.Soak
module Annealing = Batsched_baselines.Annealing
module Solution = Batsched_baselines.Solution

let graph_src =
  "graph g\n\
   task A 600:2 350:3 150:5\n\
   task B 519:2 319:3 163:5\n\
   task C 417:2 250:3 120:5\n\
   edge A B\n\
   edge B C"

let request_line ?(id = "r1") ?(algo = "annealing") ?(model = "rakhmatov")
    ?(seed = 7) ?(extra = "") () =
  Printf.sprintf
    "{\"id\":\"%s\",\"deadline\":12.0,\"algo\":\"%s\",\"model\":\"%s\",\
     \"seed\":%d%s,\"graph\":\"%s\"}"
    id algo model seed extra
    (Batsched_obs.Json.escape_string graph_src)

(* --- Request.of_json --- *)

let test_parse_submit () =
  match Request.of_json (request_line ~extra:",\"t0\":50,\"steps\":3" ()) with
  | Ok (Request.Submit r) ->
      Alcotest.(check string) "id" "r1" r.Request.id;
      Alcotest.(check (float 0.0)) "deadline" 12.0 r.Request.deadline;
      Alcotest.(check string) "algo" "annealing" r.Request.search.Request.algo;
      Alcotest.(check int) "seed" 7 r.Request.search.Request.seed;
      Alcotest.(check (option int)) "steps" (Some 3)
        r.Request.search.Request.steps;
      Alcotest.(check (option (float 0.0))) "t0" (Some 50.0)
        r.Request.search.Request.t0
  | Ok (Request.Cancel _) -> Alcotest.fail "parsed as cancel"
  | Error msg -> Alcotest.fail msg

let test_parse_cancel () =
  match Request.of_json "{\"cancel\":\"r9\"}" with
  | Ok (Request.Cancel id) -> Alcotest.(check string) "id" "r9" id
  | _ -> Alcotest.fail "expected cancel"

let expect_error name line =
  match Request.of_json line with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail (name ^ ": expected a parse error")

let test_parse_rejects () =
  expect_error "not json" "{oops";
  expect_error "missing id"
    (Printf.sprintf "{\"deadline\":9.0,\"graph\":\"%s\"}"
       (Batsched_obs.Json.escape_string graph_src));
  expect_error "missing graph" "{\"id\":\"r1\",\"deadline\":9.0}";
  expect_error "unknown algo" (request_line ~algo:"gradient-descent" ());
  expect_error "unknown model" (request_line ~model:"unobtanium" ());
  expect_error "bad graph"
    "{\"id\":\"r1\",\"deadline\":9.0,\"graph\":\"task without header\"}";
  expect_error "non-positive deadline"
    (Printf.sprintf "{\"id\":\"r1\",\"deadline\":0.0,\"graph\":\"%s\"}"
       (Batsched_obs.Json.escape_string graph_src))

(* A field that is present with the wrong type is reported as mistyped,
   not as missing. *)
let test_parse_mistyped () =
  let check label expected line =
    match Request.of_json line with
    | Error msg -> Alcotest.(check string) label expected msg
    | Ok _ -> Alcotest.failf "%s: should be rejected" label
  in
  check "numeric graph" "mistyped field: graph (expected a string)"
    "{\"id\":\"r1\",\"deadline\":9.0,\"graph\":5}";
  check "string deadline" "mistyped field: deadline (expected a number)"
    (Printf.sprintf "{\"id\":\"r1\",\"deadline\":\"9\",\"graph\":\"%s\"}"
       (Batsched_obs.Json.escape_string graph_src));
  check "numeric id" "mistyped field: id (expected a string)"
    "{\"id\":1,\"deadline\":9.0,\"graph\":\"g\"}";
  check "string starts" "mistyped field: starts (expected a number)"
    (request_line ~extra:",\"starts\":\"4\"" ());
  check "numeric cancel" "mistyped field: cancel (expected a string)"
    "{\"cancel\":9}"

(* Values the search cannot use are rejected at the boundary, with a
   message naming the field, instead of running: a beta whose square
   underflows or a beta past 1.3e153 (whose beta^2 m^2 overflows) once
   came back as "sigma":null, a negative beta failed in
   the worker, an infinite deadline was accepted and a seed past 2^62
   overflowed int_of_float.  A T0 <= 0 failed in the worker and an
   infinite one never cooled; a fractional count was truncated and one
   past 2^62 wrapped to a negative int. *)
let rejects_unusable expected fields () =
  let line =
    Printf.sprintf "{\"id\":\"r1\",%s,\"graph\":\"%s\"}" fields
      (Batsched_obs.Json.escape_string graph_src)
  in
  match Request.of_json line with
  | Error msg -> Alcotest.(check string) fields expected msg
  | Ok _ -> Alcotest.failf "%s: should be rejected" fields

let bad_beta = "beta must be a number from 1e-150 to 1e150"

let bad_t0 = "t0 must be a positive finite number"

let bad_count field = field ^ " must be an integer from 1 to 2^53"

let test_parse_usable_beta () =
  match Request.of_json (request_line ~extra:",\"beta\":0.5" ()) with
  | Ok (Request.Submit r) ->
      Alcotest.(check (float 0.0)) "beta" 0.5 r.Request.search.Request.beta
  | _ -> Alcotest.fail "beta 0.5 should parse"

(* fuzz: a single-byte corruption of a valid request line is either
   accepted or answered with an error — never an exception *)
let prop_request_fuzz_no_crash =
  let lines = Array.of_list (Soak.fixture_lines ~n:12 ~seed:4) in
  QCheck.Test.make ~count:500 ~name:"requests survive corrupted input"
    QCheck.(pair (int_bound (Array.length lines - 1)) (int_bound 100_000))
    (fun (i, seed) ->
      let rng = Rng.create seed in
      match Request.of_json (Fuzz.mutate ~rng lines.(i)) with
      | Ok _ | Error _ -> true
      | exception _ -> false)

(* --- daemon end-to-end --- *)

let with_daemon ?(capacity = 64) ?(pool_size = 4) ?(events = Events.noop)
    ?(stream_search = false) f =
  Pool.with_pool pool_size @@ fun pool ->
  f (Daemon.create ~capacity ~stream_search ~pool ~events ())

let test_daemon_mixed_batch () =
  with_daemon @@ fun d ->
  let n = 24 in
  List.iter (Daemon.handle_line d) (Soak.mixed_lines ~n ~seed:5);
  Daemon.drain d;
  let c = Daemon.counts d in
  Alcotest.(check int) "accepted" n c.Daemon.accepted;
  Alcotest.(check int) "completed" n c.Daemon.completed;
  Alcotest.(check int) "errors" 0 c.Daemon.errors;
  Alcotest.(check int) "rejected" 0 c.Daemon.rejected

(* A served request must commit exactly the solution a direct run with
   the same seed and knobs commits — nested regions degrade to
   sequential on the worker, so pooling cannot perturb the search. *)
let test_daemon_bit_identical_to_single_shot () =
  let events = Events.create_memory () in
  (with_daemon ~events ~stream_search:false @@ fun d ->
   Daemon.handle_line d (request_line ~extra:",\"t0\":80,\"steps\":4" ());
   Daemon.drain d);
  let result =
    match
      List.find_opt
        (fun (r : Events.record) -> r.Events.kind = "result")
        (Events.snapshot events)
    with
    | Some r -> r
    | None -> Alcotest.fail "no result record"
  in
  let field name =
    match List.assoc_opt name result.Events.fields with
    | Some (Events.F v) -> v
    | _ -> Alcotest.fail ("missing float field " ^ name)
  in
  (* the same search, run directly *)
  let g = Batsched_taskgraph.Textio.of_string graph_src in
  let params =
    { Annealing.default_params with
      Annealing.initial_temperature = 80.0;
      steps_per_temperature = 4 }
  in
  let sol =
    Annealing.run ~params
      ~rng:(Rng.create 7)
      ~model:(Batsched_battery.Rakhmatov.model ())
      g ~deadline:12.0
  in
  Alcotest.(check (float 0.0)) "sigma" sol.Solution.sigma (field "sigma");
  Alcotest.(check (float 0.0)) "finish" sol.Solution.finish (field "finish")

let slow_line id =
  request_line ~id ~extra:",\"t0\":1e7,\"steps\":5000" ()

let test_daemon_cancel_in_flight () =
  let t0 = Unix.gettimeofday () in
  (with_daemon @@ fun d ->
   Daemon.handle_line d (slow_line "slow");
   (* give the job a moment to actually start its ladder *)
   Unix.sleepf 0.01;
   Daemon.handle_line d "{\"cancel\":\"slow\"}";
   Daemon.drain d;
   let c = Daemon.counts d in
   Alcotest.(check int) "cancelled" 1 c.Daemon.cancelled;
   Alcotest.(check int) "completed" 0 c.Daemon.completed);
  (* a full 1e7-to-1 ladder at 5000 steps/level would run for minutes;
     promptness means we return within a level or two *)
  Alcotest.(check bool) "prompt" true (Unix.gettimeofday () -. t0 < 30.0)

let test_daemon_cancel_before_submit () =
  with_daemon @@ fun d ->
  Daemon.handle_line d "{\"cancel\":\"early\"}";
  Daemon.handle_line d (slow_line "early");
  Daemon.drain d;
  let c = Daemon.counts d in
  Alcotest.(check int) "cancelled on entry" 1 c.Daemon.cancelled

let test_daemon_overload () =
  let events = Events.create_memory () in
  (with_daemon ~capacity:1 ~events @@ fun d ->
   Daemon.handle_line d (slow_line "hog");
   Daemon.handle_line d (request_line ~id:"spill" ());
   Daemon.handle_line d "{\"cancel\":\"hog\"}";
   Daemon.drain d;
   let c = Daemon.counts d in
   Alcotest.(check int) "rejected" 1 c.Daemon.rejected;
   Alcotest.(check int) "accepted" 1 c.Daemon.accepted);
  let overloaded =
    List.filter
      (fun (r : Events.record) -> r.Events.kind = "overloaded")
      (Events.snapshot events)
  in
  Alcotest.(check int) "overloaded record" 1 (List.length overloaded)

let test_daemon_malformed_line () =
  let events = Events.create_memory () in
  (with_daemon ~events @@ fun d ->
   Daemon.handle_line d "{not json at all";
   Daemon.handle_line d "";
   Daemon.drain d;
   Alcotest.(check int) "errors" 1 (Daemon.counts d).Daemon.errors);
  Alcotest.(check bool) "parse_error record" true
    (List.exists
       (fun (r : Events.record) -> r.Events.kind = "parse_error")
       (Events.snapshot events))

let test_soak_run () =
  Pool.with_pool 4 @@ fun pool ->
  let r = Soak.run ~pool ~n:40 () in
  Alcotest.(check int) "completed" 40 r.Soak.counts.Daemon.completed;
  Alcotest.(check int) "errors" 0 r.Soak.counts.Daemon.errors;
  Alcotest.(check bool) "throughput positive" true (r.Soak.req_per_s > 0.0);
  Alcotest.(check bool) "p99 >= p50" true
    (r.Soak.latency_p99_ms >= r.Soak.latency_p50_ms)

let test_fixture_shape () =
  let lines = Soak.fixture_lines ~n:10 ~seed:3 in
  Alcotest.(check int) "line count" 11 (List.length lines);
  Alcotest.(check bool) "ends with the cancel" true
    (List.nth lines 10 = "{\"cancel\":\"slow-1\"}");
  List.iter
    (fun l ->
      match Request.of_json l with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail (msg ^ ": " ^ l))
    lines

let () =
  Alcotest.run "serve"
    [ ( "request",
        [ Alcotest.test_case "parse submit" `Quick test_parse_submit;
          Alcotest.test_case "parse cancel" `Quick test_parse_cancel;
          Alcotest.test_case "rejects" `Quick test_parse_rejects;
          Alcotest.test_case "mistyped fields" `Quick test_parse_mistyped;
          Alcotest.test_case "rejects tiny beta" `Quick
            (rejects_unusable bad_beta "\"deadline\":12,\"beta\":1e-300");
          Alcotest.test_case "rejects huge beta" `Quick
            (rejects_unusable bad_beta "\"deadline\":12,\"beta\":1e154");
          Alcotest.test_case "rejects negative beta" `Quick
            (rejects_unusable bad_beta "\"deadline\":12,\"beta\":-1");
          Alcotest.test_case "rejects infinite deadline" `Quick
            (rejects_unusable "deadline must be finite" "\"deadline\":1e999");
          Alcotest.test_case "rejects huge seed" `Quick
            (rejects_unusable "seed must be an integer of magnitude at most 2^53"
               "\"deadline\":12,\"seed\":1e300");
          Alcotest.test_case "rejects zero t0" `Quick
            (rejects_unusable bad_t0 "\"deadline\":12,\"t0\":0");
          Alcotest.test_case "rejects negative t0" `Quick
            (rejects_unusable bad_t0 "\"deadline\":12,\"t0\":-1");
          Alcotest.test_case "rejects infinite t0" `Quick
            (rejects_unusable bad_t0 "\"deadline\":12,\"t0\":1e999");
          Alcotest.test_case "rejects fractional samples" `Quick
            (rejects_unusable (bad_count "samples")
               "\"deadline\":12,\"samples\":2.5");
          Alcotest.test_case "rejects fractional starts" `Quick
            (rejects_unusable (bad_count "starts")
               "\"deadline\":12,\"starts\":1.9");
          Alcotest.test_case "rejects fractional steps" `Quick
            (rejects_unusable (bad_count "steps")
               "\"deadline\":12,\"steps\":3.5");
          Alcotest.test_case "rejects huge samples" `Quick
            (rejects_unusable (bad_count "samples")
               "\"deadline\":12,\"samples\":1e300");
          Alcotest.test_case "rejects zero samples" `Quick
            (rejects_unusable "samples must be >= 1"
               "\"deadline\":12,\"samples\":0");
          Alcotest.test_case "usable beta" `Quick test_parse_usable_beta ] );
      ( "daemon",
        [ Alcotest.test_case "mixed batch" `Quick test_daemon_mixed_batch;
          Alcotest.test_case "bit-identical to single-shot" `Quick
            test_daemon_bit_identical_to_single_shot;
          Alcotest.test_case "cancel in flight" `Quick
            test_daemon_cancel_in_flight;
          Alcotest.test_case "cancel before submit" `Quick
            test_daemon_cancel_before_submit;
          Alcotest.test_case "overload" `Quick test_daemon_overload;
          Alcotest.test_case "malformed line" `Quick
            test_daemon_malformed_line ] );
      ( "soak",
        [ Alcotest.test_case "run" `Quick test_soak_run;
          Alcotest.test_case "fixture shape" `Quick test_fixture_shape ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_request_fuzz_no_crash ] )
    ]
