(* Tests for the fleet endurance engine: spec parsing, sampler purity,
   survival accounting, and the bit-identical-across-pool-sizes
   guarantee the sharded engine rests on. *)

open Batsched_fleet

let spec_json =
  {|{
  "horizon": 30,
  "alpha": {"min": 20000, "max": 40000},
  "soh": {"min": 0.8, "max": 1.0},
  "period_factor": {"min": 1.2, "max": 2.0},
  "models": [
    {"model": "ideal", "weight": 0.5},
    {"model": "peukert", "exponent": {"min": 1.05, "max": 1.3}},
    {"model": "rakhmatov", "weight": 2.0, "beta": {"min": 0.2, "max": 0.6}},
    {"model": "kibam", "c": {"min": 0.3, "max": 0.7},
     "k_prime": {"min": 0.02, "max": 0.1}},
    {"model": "pde", "weight": 0.4, "beta": {"min": 0.2, "max": 0.5},
     "nodes": 8, "dt": 1.0}
  ],
  "cycle": {"kind": "bursts", "count": {"min": 1, "max": 4},
            "current": {"min": 200, "max": 900},
            "duration": {"min": 2, "max": 15}}
}|}

let parse_spec () =
  match Spec.of_json (Batsched_obs.Json.parse spec_json) with
  | Ok s -> s
  | Error msg -> Alcotest.failf "spec should parse: %s" msg

(* --- Spec --- *)

let test_spec_parses () =
  let s = parse_spec () in
  Alcotest.(check int) "horizon" 30 s.Spec.horizon;
  Alcotest.(check int) "models" 5 (List.length s.Spec.models);
  Alcotest.(check (float 1e-9)) "alpha lo" 20000.0 s.Spec.alpha.Spec.lo;
  let labels = List.map (fun m -> m.Spec.label) s.Spec.models in
  Alcotest.(check (list string)) "labels"
    [ "ideal"; "peukert"; "rakhmatov"; "kibam"; "pde" ]
    labels;
  match s.Spec.cycle with
  | Spec.Bursts { count; _ } ->
      Alcotest.(check (float 1e-9)) "count hi" 4.0 count.Spec.hi
  | Spec.Graph _ -> Alcotest.fail "expected a bursts cycle"

let test_spec_graph_cycle () =
  let j =
    Batsched_obs.Json.parse
      {|{"models": [{"model": "ideal"}],
         "cycle": {"kind": "graph", "graph": "g2", "law": "fastest"}}|}
  in
  match Spec.of_json j with
  | Error msg -> Alcotest.failf "should parse: %s" msg
  | Ok s -> begin
      Alcotest.(check int) "default horizon" 200 s.Spec.horizon;
      match s.Spec.cycle with
      | Spec.Graph { name; law = Spec.Fastest; _ } ->
          Alcotest.(check string) "graph" "g2" name
      | _ -> Alcotest.fail "expected g2/fastest"
    end

let test_spec_rejects () =
  let reject label json =
    match Spec.of_json (Batsched_obs.Json.parse json) with
    | Ok _ -> Alcotest.failf "%s: should be rejected" label
    | Error msg ->
        Alcotest.(check bool)
          (label ^ ": message names the spec") true
          (String.length msg > 0)
  in
  reject "no models" {|{"cycle": {"kind": "bursts"}, "models": []}|};
  reject "unknown model"
    {|{"cycle": {"kind": "bursts"}, "models": [{"model": "magic"}]}|};
  reject "inverted range"
    {|{"alpha": {"min": 10, "max": 5}, "cycle": {"kind": "bursts"},
       "models": [{"model": "ideal"}]}|};
  reject "period factor below 1"
    {|{"period_factor": 0.5, "cycle": {"kind": "bursts"},
       "models": [{"model": "ideal"}]}|};
  reject "unknown graph"
    {|{"cycle": {"kind": "graph", "graph": "g9"},
       "models": [{"model": "ideal"}]}|}

(* Hostile numbers: the JSON parser reads an overflowing literal as
   infinity, and every such value must be rejected by name before it
   reaches the sampler or a kernel. *)
let hostile_specs =
  let spec ?(top = "") ?(models = {|{"model": "ideal"}|})
      ?(cycle = {|{"kind": "bursts"}|}) () =
    Printf.sprintf {|{%s "models": [%s], "cycle": %s}|} top models cycle
  in
  [ ("infinite horizon", spec ~top:{|"horizon": 1e999,|} (),
     "horizon: must be finite");
    ( "infinite weight",
      spec ~models:{|{"model": "ideal", "weight": 1e999}, {"model": "kibam"}|} (),
      "ideal.weight: must be finite" );
    ("infinite alpha", spec ~top:{|"alpha": 1e999,|} (), "alpha: must be finite");
    ( "infinite range bound",
      spec ~top:{|"soh": {"min": 0.5, "max": 1e999},|} (),
      "soh: must be finite" );
    ( "infinite period factor",
      spec ~top:{|"period_factor": 1e999,|} (),
      "period_factor: must be finite" );
    ( "infinite model range",
      spec ~models:{|{"model": "pde", "beta": {"min": 0.2, "max": 1e999}}|} (),
      "pde.beta: must be finite" );
    ( "infinite cycle range",
      spec ~cycle:{|{"kind": "bursts", "duration": 1e999}|} (),
      "cycle.duration: must be finite" );
    ( "infinite terms",
      spec ~models:{|{"model": "rakhmatov", "terms": 1e999}|} (),
      "rakhmatov.terms: must be finite" );
    ( "infinite pde nodes",
      spec ~models:{|{"model": "pde", "nodes": 1e999}|} (),
      "pde.nodes: must be finite" );
    ( "huge pde nodes",
      spec ~models:{|{"model": "pde", "nodes": 1e12}|} (),
      "pde.nodes: must be <= 1024" );
    (* counts are parsed, never allocated from, before they are checked *)
    ( "huge terms",
      spec ~models:{|{"model": "rakhmatov", "terms": 1e15}|} (),
      "rakhmatov.terms: must be <= 10000" );
    ( "fractional terms",
      spec ~models:{|{"model": "rakhmatov", "terms": 2.5}|} (),
      "rakhmatov.terms: must be an integer" );
    ( "fractional pde nodes",
      spec ~models:{|{"model": "pde", "nodes": 8.7}|} (),
      "pde.nodes: must be an integer" );
    ( "infinite pde dt",
      spec ~models:{|{"model": "pde", "dt": 1e999}|} (),
      "pde.dt: must be finite" );
    (* sigma nan at every probe: every device would be censored *)
    ( "huge rakhmatov beta",
      spec ~models:{|{"model": "rakhmatov", "beta": 1e200}|} (),
      "rakhmatov.beta: must be from 1e-150 to 1e150" );
    ( "tiny rakhmatov beta",
      spec ~models:{|{"model": "rakhmatov", "beta": {"min": 1e-200, "max": 0.3}}|} (),
      "rakhmatov.beta: must be from 1e-150 to 1e150" );
    (* past 2^53 the last Thomas pivot rounds to zero *)
    ( "huge pde beta",
      spec
        ~models:
          {|{"model": "pde", "beta": {"min": 1.5e8, "max": 1.5e8},
             "nodes": 8, "dt": 1.0}|}
        (),
      "pde.beta: 1.5e+08 is too large for 8 nodes at dt 1 \
       (dt beta^2 / (pi^2 dx^2) >= 2^53)" );
    (* default bursts (at most 3 of 20 min) and period factor (2) *)
    ( "tiny pde dt",
      spec ~models:{|{"model": "pde", "dt": 1e-300}|} (),
      "pde.dt: too small for spans of up to 120 min (2^53 steps)" );
    ( "tiny pde dt under a graph cycle",
      spec ~top:{|"period_factor": {"min": 1, "max": 3},|}
        ~models:{|{"model": "pde", "dt": 1e-14}|}
        ~cycle:{|{"kind": "graph", "graph": "g3", "law": "fastest"}|} (),
      "pde.dt: too small for spans of up to 255.6 min (2^53 steps)" ) ]

let hostile_spec_tests =
  List.map
    (fun (label, json, want) ->
      Alcotest.test_case label `Quick (fun () ->
          match Spec.of_json (Batsched_obs.Json.parse json) with
          | Ok _ -> Alcotest.failf "%s: should be rejected" label
          | Error msg ->
              Alcotest.(check string) "message" ("fleet spec: " ^ want) msg))
    hostile_specs

let test_spec_pde_nodes_cap_inclusive () =
  match
    Spec.of_json
      (Batsched_obs.Json.parse
         {|{"models": [{"model": "pde", "nodes": 1024}],
            "cycle": {"kind": "bursts"}}|})
  with
  | Ok { Spec.models = [ { Spec.model = Spec.Pde { nodes; _ }; _ } ]; _ } ->
      Alcotest.(check int) "nodes" 1024 nodes
  | Ok _ -> Alcotest.fail "expected one pde model"
  | Error msg -> Alcotest.failf "1024 nodes should parse: %s" msg

(* --- Sampler --- *)

let profiles_equal a b =
  let la = Batsched_battery.Profile.intervals a in
  let lb = Batsched_battery.Profile.intervals b in
  List.length la = List.length lb
  && List.for_all2
       (fun (x : Batsched_battery.Profile.interval)
            (y : Batsched_battery.Profile.interval) ->
         x.Batsched_battery.Profile.start = y.Batsched_battery.Profile.start
         && x.Batsched_battery.Profile.duration
            = y.Batsched_battery.Profile.duration
         && x.Batsched_battery.Profile.current
            = y.Batsched_battery.Profile.current)
       la lb

let test_sampler_pure () =
  let spec = parse_spec () in
  let base = Sampler.base ~seed:7 in
  for i = 0 to 49 do
    let a = Sampler.device spec ~base i in
    let b = Sampler.device spec ~base i in
    Alcotest.(check int)
      (Printf.sprintf "device %d model" i)
      a.Sampler.model_index b.Sampler.model_index;
    Alcotest.(check bool)
      (Printf.sprintf "device %d alpha bit-equal" i)
      true
      (Int64.equal
         (Int64.bits_of_float a.Sampler.periodic.Batsched_battery.Periodic.alpha)
         (Int64.bits_of_float b.Sampler.periodic.Batsched_battery.Periodic.alpha));
    Alcotest.(check bool)
      (Printf.sprintf "device %d period bit-equal" i)
      true
      (a.Sampler.periodic.Batsched_battery.Periodic.period
      = b.Sampler.periodic.Batsched_battery.Periodic.period);
    Alcotest.(check bool)
      (Printf.sprintf "device %d cycle equal" i)
      true
      (profiles_equal a.Sampler.periodic.Batsched_battery.Periodic.cycle
         b.Sampler.periodic.Batsched_battery.Periodic.cycle)
  done

let test_sampler_covers_models () =
  (* with 400 draws every listed model should appear — a smoke test
     that the weighted choice is not stuck on one branch *)
  let spec = parse_spec () in
  let base = Sampler.base ~seed:11 in
  let seen = Array.make (List.length spec.Spec.models) 0 in
  for i = 0 to 399 do
    let d = Sampler.device spec ~base i in
    seen.(d.Sampler.model_index) <- seen.(d.Sampler.model_index) + 1
  done;
  Array.iteri
    (fun m c ->
      Alcotest.(check bool) (Printf.sprintf "model %d drawn" m) true (c > 0))
    seen

(* --- Survival --- *)

let test_survival_quantiles () =
  let t = Survival.create ~horizon:10 ~models:[| "m" |] in
  for _ = 1 to 5 do
    Survival.observe t ~model_index:0 (Batsched_battery.Periodic.Dies 2)
  done;
  for _ = 1 to 4 do
    Survival.observe t ~model_index:0 (Batsched_battery.Periodic.Dies 5)
  done;
  Survival.observe t ~model_index:0 (Batsched_battery.Periodic.Censored 10);
  Alcotest.(check int) "n" 10 (Survival.n t);
  Alcotest.(check int) "censored" 1 (Survival.censored t);
  Alcotest.(check int) "p50" 2 (Survival.quantile t 50.0);
  Alcotest.(check int) "p90" 5 (Survival.quantile t 90.0);
  Alcotest.(check int) "p99 hits the censored mass" 10
    (Survival.quantile t 99.0);
  Alcotest.(check (list (pair int (float 1e-9))))
    "staircase"
    [ (0, 1.0); (3, 0.5); (6, 0.1) ]
    (Survival.survival t)

let test_survival_merge_partition_invariant () =
  (* folding the same outcomes in any partition and order gives the
     same counters, hence the same checksum *)
  let outcomes =
    Array.init 200 (fun i ->
        if i mod 17 = 0 then Batsched_battery.Periodic.Censored 30
        else Batsched_battery.Periodic.Dies (i mod 29))
  in
  let direct = Survival.create ~horizon:30 ~models:[| "a"; "b" |] in
  Array.iteri
    (fun i o -> Survival.observe direct ~model_index:(i mod 2) o)
    outcomes;
  let sharded = Survival.create ~horizon:30 ~models:[| "a"; "b" |] in
  let shard_of = [| [] ; []; [] |] in
  Array.iteri
    (fun i o -> shard_of.(i mod 3) <- (i, o) :: shard_of.(i mod 3))
    outcomes;
  Array.iter
    (fun items ->
      let acc = Survival.create ~horizon:30 ~models:[| "a"; "b" |] in
      List.iter
        (fun (i, o) -> Survival.observe acc ~model_index:(i mod 2) o)
        items;
      Survival.merge ~into:sharded acc)
    shard_of;
  Alcotest.(check string) "checksums agree" (Survival.checksum direct)
    (Survival.checksum sharded);
  let render t =
    let b = Buffer.create 256 in
    Survival.to_json t b;
    Buffer.contents b
  in
  Alcotest.(check string) "json agrees" (render direct) (render sharded)

let test_survival_rejects_foreign () =
  let t = Survival.create ~horizon:10 ~models:[| "m" |] in
  Alcotest.(check bool) "foreign horizon" true
    (match
       Survival.observe t ~model_index:0 (Batsched_battery.Periodic.Censored 9)
     with
    | () -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "bad model" true
    (match
       Survival.observe t ~model_index:3 (Batsched_battery.Periodic.Dies 1)
     with
    | () -> false
    | exception Invalid_argument _ -> true);
  let other = Survival.create ~horizon:11 ~models:[| "m" |] in
  Alcotest.(check bool) "merge horizon mismatch" true
    (match Survival.merge ~into:t other with
    | () -> false
    | exception Invalid_argument _ -> true)

(* --- Engine --- *)

let run_fleet ~pool_size ~devices ~seed spec =
  Batsched_numeric.Pool.with_pool pool_size (fun pool ->
      Engine.run ~pool ~spec ~devices ~seed ())

let test_engine_pool_size_invariant () =
  let spec = parse_spec () in
  let reference = run_fleet ~pool_size:1 ~devices:240 ~seed:42 spec in
  let checksum = Survival.checksum reference in
  Alcotest.(check int) "all devices land" 240 (Survival.n reference);
  List.iter
    (fun size ->
      let r = run_fleet ~pool_size:size ~devices:240 ~seed:42 spec in
      Alcotest.(check string)
        (Printf.sprintf "pool %d bit-identical" size)
        checksum (Survival.checksum r);
      let render t =
        let b = Buffer.create 256 in
        Survival.to_json t b;
        Buffer.contents b
      in
      Alcotest.(check string)
        (Printf.sprintf "pool %d json identical" size)
        (render reference) (render r))
    [ 2; 4 ]

let test_engine_block_size_invariant () =
  (* the block size is a batching knob, not a semantic one *)
  let spec = parse_spec () in
  let a = Engine.run ~block:7 ~spec ~devices:100 ~seed:3 () in
  let b = Engine.run ~block:256 ~spec ~devices:100 ~seed:3 () in
  Alcotest.(check string) "block-size independent" (Survival.checksum a)
    (Survival.checksum b)

let test_engine_seed_sensitivity () =
  let spec = parse_spec () in
  let a = Engine.run ~spec ~devices:100 ~seed:1 () in
  let b = Engine.run ~spec ~devices:100 ~seed:2 () in
  Alcotest.(check bool) "different seeds differ" true
    (Survival.checksum a <> Survival.checksum b)

let test_engine_events_and_counters () =
  let spec = parse_spec () in
  let ev = Batsched_obs.Events.create_memory () in
  let c0 = Batsched_numeric.Probe.totals () in
  let r = Engine.run ~events:ev ~block:32 ~spec ~devices:64 ~seed:5 () in
  let c1 = Batsched_numeric.Probe.totals () in
  let named c name =
    match List.assoc_opt name (Batsched_numeric.Probe.named_counts c) with
    | Some v -> v
    | None -> 0
  in
  Alcotest.(check int) "device counter" 64
    (named c1 "fleet/devices" - named c0 "fleet/devices");
  let records = Batsched_obs.Events.snapshot ev in
  let blocks =
    List.filter (fun r -> r.Batsched_obs.Events.kind = "fleet-block") records
  in
  Alcotest.(check int) "one event per block" 2 (List.length blocks);
  match
    List.find_opt
      (fun r -> r.Batsched_obs.Events.kind = "fleet-done")
      records
  with
  | None -> Alcotest.fail "missing fleet-done event"
  | Some d -> begin
      match
        List.assoc_opt "checksum" d.Batsched_obs.Events.fields
      with
      | Some (Batsched_obs.Events.S s) ->
          Alcotest.(check string) "event checksum matches result"
            (Survival.checksum r) s
      | _ -> Alcotest.fail "fleet-done lacks a checksum field"
    end

let test_engine_empty_fleet () =
  let spec = parse_spec () in
  let r = Engine.run ~spec ~devices:0 ~seed:0 () in
  Alcotest.(check int) "no devices" 0 (Survival.n r)

(* The CI spec, which dune copies next to the test executable. *)
let ci_spec () =
  let path =
    Filename.concat (Filename.dirname Sys.executable_name) "fleet_spec.json"
  in
  match Spec.of_file path with
  | Ok s -> s
  | Error msg -> Alcotest.failf "%s: %s" path msg

(* FNV-1a 64 over each device's outcome (tag, then cycles) and
   fatal-sigma bits, in device order: unlike the [sv1-] checksum, which
   hashes integer tallies only, it pins every fatal sigma. *)
let device_digest results =
  let h = ref 0xCBF29CE484222325L in
  let feed v =
    let x = ref v in
    for _ = 0 to 7 do
      let byte = Int64.logand !x 0xFFL in
      h := Int64.mul (Int64.logxor !h byte) 0x100000001B3L;
      x := Int64.shift_right_logical !x 8
    done
  in
  Array.iter
    (fun (r : Batsched_battery.Periodic.Batch.result) ->
      (match r.Batsched_battery.Periodic.Batch.outcome with
      | Batsched_battery.Periodic.Dies n -> feed 0L; feed (Int64.of_int n)
      | Batsched_battery.Periodic.Censored n -> feed 1L; feed (Int64.of_int n));
      feed (Int64.bits_of_float r.Batsched_battery.Periodic.Batch.fatal_sigma))
    results;
  Printf.sprintf "%016Lx" !h

(* Every device's outcome and fatal-sigma digest over 2,000 devices of
   [spec] at seed 2026, through [Sampler] and [Periodic.Batch.run] in
   blocks of 1, 23, 256 and 2,000 devices. *)
let check_device_digest spec want =
  let devices = 2_000 in
  let base = Sampler.base ~seed:2026 in
  let sampled = Array.init devices (Sampler.device spec ~base) in
  List.iter
    (fun block ->
      let results =
        Array.concat
          (List.init
             ((devices + block - 1) / block)
             (fun k ->
               let lo = k * block in
               Batsched_battery.Periodic.Batch.run
                 ~max_cycles:spec.Spec.horizon
                 ~n:(Int.min block (devices - lo))
                 ~device:(fun j -> sampled.(lo + j).Sampler.periodic)
                 ()))
      in
      Alcotest.(check string)
        (Printf.sprintf "digest at blocks of %d" block)
        want (device_digest results))
    [ 1; 23; 256; 2_000 ]

(* The CI spec.  Its digest was recorded before the kernel ran each
   device start to finish, so it pins every device's outcome and fatal
   sigma, bit for bit, at every block size (and so at every lane-group
   make-up). *)
let test_engine_device_digest () =
  check_device_digest (ci_spec ()) "23a1e5114e7f45a1"

(* The CI spec draws one burst per cycle, so its digest never sees a
   cycle of more than one interval.  These two populations have the CI
   spec's channel models (no PDE device) on G3 task-graph missions of 15
   intervals under random design points, and on missions of 1-5 bursts,
   with budgets that spread lifetimes over the horizon.  Both digests
   were recorded before the channel sweep learnt to start at the first
   cycle that can kill a device. *)
let channel_spec ~alpha ~cycle =
  let json =
    Printf.sprintf
      {|{
  "horizon": 120,
  "alpha": %s,
  "soh": {"min": 0.75, "max": 1.0},
  "period_factor": {"min": 1.1, "max": 2.0},
  "models": [
    {"model": "ideal", "weight": 1},
    {"model": "peukert", "weight": 1,
     "exponent": {"min": 1.05, "max": 1.3}, "reference_current": 100},
    {"model": "rakhmatov", "weight": 2, "beta": {"min": 0.2, "max": 0.6}},
    {"model": "kibam", "weight": 1,
     "c": {"min": 0.3, "max": 0.7}, "k_prime": {"min": 0.02, "max": 0.1}}
  ],
  "cycle": %s
}|}
      alpha cycle
  in
  match Spec.of_json (Batsched_obs.Json.parse json) with
  | Ok s -> s
  | Error msg -> Alcotest.failf "spec should parse: %s" msg

let test_engine_device_digest_g3 () =
  check_device_digest
    (channel_spec ~alpha:{|{"min": 300000, "max": 4500000}|}
       ~cycle:{|{"kind": "graph", "graph": "g3", "law": "uniform"}|})
    "b70294743f0b1cf1"

let test_engine_device_digest_bursts () =
  check_device_digest
    (channel_spec ~alpha:{|{"min": 28000, "max": 45000}|}
       ~cycle:
         {|{"kind": "bursts", "count": {"min": 1, "max": 6},
            "current": {"min": 60, "max": 300},
            "duration": {"min": 1, "max": 5}}|})
    "1b4405746c1e2d03"

(* Nothing per device outlives its run: a job's devices, compiled
   tables and results die young, so [Engine.run] promotes few words
   per device to the major heap. *)
let test_engine_promotion () =
  let spec = ci_spec () in
  let devices = 4_096 in
  ignore (Engine.run ~spec ~devices:256 ~seed:2026 ());
  let s0 = Gc.quick_stat () in
  ignore (Engine.run ~spec ~devices ~seed:2026 ());
  let s1 = Gc.quick_stat () in
  let per_device =
    (s1.Gc.promoted_words -. s0.Gc.promoted_words) /. float_of_int devices
  in
  Alcotest.(check bool)
    (Printf.sprintf "promoted words per device (%.1f) < 10" per_device)
    true (per_device < 10.0)

(* fuzz: a single-byte corruption of a valid spec either parses, is
   rejected as bad JSON, or is rejected by [Spec.of_json] with an error
   — never an exception *)
let prop_spec_fuzz_no_crash =
  let specs =
    [| spec_json;
       {|{"models": [{"model": "ideal"}],
          "cycle": {"kind": "graph", "graph": "g2", "law": "fastest"}}|} |]
  in
  QCheck.Test.make ~count:500 ~name:"specs survive corrupted input"
    QCheck.(pair (int_bound (Array.length specs - 1)) (int_bound 100_000))
    (fun (i, seed) ->
      let rng = Batsched_numeric.Rng.create seed in
      match Batsched_obs.Json.parse (Fuzz.mutate ~rng specs.(i)) with
      | exception Batsched_obs.Json.Bad_json _ -> true
      | j -> (
          match Spec.of_json j with
          | Ok _ | Error _ -> true
          | exception _ -> false)
      | exception _ -> false)

let () =
  Alcotest.run "fleet"
    [ ( "spec",
        [ Alcotest.test_case "parses" `Quick test_spec_parses;
          Alcotest.test_case "graph cycle" `Quick test_spec_graph_cycle;
          Alcotest.test_case "rejects bad input" `Quick test_spec_rejects;
          Alcotest.test_case "pde nodes cap is inclusive" `Quick
            test_spec_pde_nodes_cap_inclusive ] );
      ("hostile spec", hostile_spec_tests);
      ( "sampler",
        [ Alcotest.test_case "pure per index" `Quick test_sampler_pure;
          Alcotest.test_case "covers all models" `Quick
            test_sampler_covers_models ] );
      ( "survival",
        [ Alcotest.test_case "exact quantiles" `Quick test_survival_quantiles;
          Alcotest.test_case "partition-invariant merge" `Quick
            test_survival_merge_partition_invariant;
          Alcotest.test_case "rejects foreign folds" `Quick
            test_survival_rejects_foreign ] );
      ( "engine",
        [ Alcotest.test_case "bit-identical across pool sizes" `Quick
            test_engine_pool_size_invariant;
          Alcotest.test_case "block-size invariant" `Quick
            test_engine_block_size_invariant;
          Alcotest.test_case "seed sensitivity" `Quick
            test_engine_seed_sensitivity;
          Alcotest.test_case "events and counters" `Quick
            test_engine_events_and_counters;
          Alcotest.test_case "empty fleet" `Quick test_engine_empty_fleet;
          Alcotest.test_case "per-device digest" `Quick
            test_engine_device_digest;
          Alcotest.test_case "per-device digest, g3 missions" `Quick
            test_engine_device_digest_g3;
          Alcotest.test_case "per-device digest, 1-5 bursts" `Quick
            test_engine_device_digest_bursts;
          Alcotest.test_case "promoted words per device" `Quick
            test_engine_promotion ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_spec_fuzz_no_crash ] ) ]
