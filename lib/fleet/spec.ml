open Batsched_obs

type range = { lo : float; hi : float }

type law = Uniform | Fastest | Slowest

type model_spec =
  | Ideal
  | Peukert of { exponent : range; reference_current : range }
  | Rakhmatov of { beta : range; terms : int }
  | Kibam of { c : range; k_prime : range }
  | Pde of { beta : range; nodes : int; dt : float }

type weighted_model = {
  label : string;
  weight : float;
  model : model_spec;
}

type cycle_spec =
  | Graph of {
      name : string;
      graph : Batsched_taskgraph.Graph.t;
      law : law;
    }
  | Bursts of { count : range; current : range; duration : range }

type t = {
  horizon : int;
  alpha : range;
  soh : range;
  period_factor : range;
  models : weighted_model list;
  cycle : cycle_spec;
}

exception Bad of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

(* Largest PDE grid a spec may ask for: 16x the finest grid the
   library itself uses (64 nodes), far beyond any useful fleet
   fidelity, and small enough that a device's grid and solver scratch
   stay within 32 KiB. *)
let max_pde_nodes = 1024

(* Largest RV series a spec may ask for: [Rakhmatov.valid_beta] argues
   its range for series of up to 10^4 terms, and each term costs a
   device a rate and a table column. *)
let max_rv_terms = 10_000

(* Every number read from a spec must be finite: the JSON parser turns
   an overflowing literal such as 1e999 into infinity, which would
   otherwise reach int_of_float or the sampler's lo + (hi - lo) * u. *)
let finite ~name v =
  if Float.is_finite v then v else fail "%s: must be finite" name

(* Optional number field [key] of [j], reported as [name] (default
   [key]). *)
let num_field ?name key j =
  let name = Option.value name ~default:key in
  Option.map (finite ~name) (Json.num_field key j)

(* A count field: an integer from [lo] to [hi], or [default] when
   absent.  A fractional count is refused rather than truncated. *)
let count_field ~name ~lo ~hi ~default key j =
  match num_field ~name key j with
  | None -> default
  | Some n when n > float_of_int hi -> fail "%s: must be <= %d" name hi
  | Some n when n < float_of_int lo -> fail "%s: must be >= %d" name lo
  | Some n when not (Float.is_integer n) -> fail "%s: must be an integer" name
  | Some n -> int_of_float n

(* A range is either a bare number (constant) or {"min": a, "max": b}. *)
let range_of ~name j =
  match j with
  | Json.Num v ->
      let v = finite ~name v in
      { lo = v; hi = v }
  | Json.Obj _ -> begin
      match (Json.num_field "min" j, Json.num_field "max" j) with
      | Some lo, Some hi ->
          let lo = finite ~name lo and hi = finite ~name hi in
          if hi < lo then fail "%s: max < min" name else { lo; hi }
      | _ -> fail "%s: expected min and max" name
    end
  | _ -> fail "%s: expected a number or {min, max}" name

let range_field ~name ?default j =
  match (Json.field name j, default) with
  | Some r, _ -> range_of ~name r
  | None, Some d -> d
  | None, None -> fail "missing required field %s" name

let positive ~name r =
  if r.lo <= 0.0 then fail "%s: must be positive" name else r

(* Optional range field [key] of a model or cycle object, reported as
   [scope.key], with a positive lower bound. *)
let positive_range ~scope ~default key j =
  let name = scope ^ "." ^ key in
  let r =
    match Json.field key j with Some r -> range_of ~name r | None -> default
  in
  positive ~name r

let model_of_json j =
  let label =
    match Json.str_field "model" j with
    | Some s -> s
    | None -> fail "models[]: missing model name"
  in
  let weight =
    match num_field ~name:(label ^ ".weight") "weight" j with
    | Some w when w > 0.0 -> w
    | Some _ -> fail "%s: weight must be positive" label
    | None -> 1.0
  in
  let constant v = { lo = v; hi = v } in
  let model =
    match label with
    | "ideal" -> Ideal
    | "peukert" ->
        let sub = positive_range ~scope:"peukert" in
        Peukert
          { exponent = sub ~default:(constant 1.2) "exponent" j;
            reference_current =
              sub ~default:(constant 100.0) "reference_current" j }
    | "rakhmatov" ->
        let beta =
          positive_range ~scope:"rakhmatov"
            ~default:(constant Batsched_battery.Rakhmatov.default_beta)
            "beta" j
        in
        let valid = Batsched_battery.Rakhmatov.valid_beta in
        if not (valid beta.lo && valid beta.hi) then
          fail "rakhmatov.beta: must be from 1e-150 to 1e150";
        Rakhmatov
          { beta;
            terms =
              count_field ~name:"rakhmatov.terms" ~lo:1 ~hi:max_rv_terms
                ~default:Batsched_numeric.Series.default_terms "terms" j }
    | "kibam" ->
        let sub = positive_range ~scope:"kibam" in
        let c = sub ~default:(constant 0.5) "c" j in
        if c.hi >= 1.0 then fail "kibam.c: must stay below 1";
        Kibam { c; k_prime = sub ~default:(constant 0.05) "k_prime" j }
    | "pde" ->
        let beta =
          positive_range ~scope:"pde"
            ~default:(constant Batsched_battery.Rakhmatov.default_beta)
            "beta" j
        in
        let nodes =
          count_field ~name:"pde.nodes" ~lo:8 ~hi:max_pde_nodes ~default:16
            "nodes" j
        in
        let dt =
          match num_field ~name:"pde.dt" "dt" j with
          | Some d when d > 0.0 -> d
          | Some _ -> fail "pde.dt: must be positive"
          | None -> 0.25
        in
        (* dt beta^2 / (pi^2 dx^2) grows with beta: the top decides *)
        if
          not
            (Batsched_battery.Rakhmatov.valid_pde_grid ~beta:beta.hi ~nodes
               ~dt)
        then
          fail "pde.beta: %g is too large for %d nodes at dt %g \
                (dt beta^2 / (pi^2 dx^2) >= 2^53)"
            beta.hi nodes dt;
        Pde { beta; nodes; dt }
    | other -> fail "unknown model %S" other
  in
  { label; weight; model }

let cycle_of_json j =
  match Json.str_field "kind" j with
  | Some "graph" ->
      let name =
        match Json.str_field "graph" j with
        | Some g -> g
        | None -> fail "cycle: missing graph name"
      in
      let graph =
        match name with
        | "g2" -> Batsched_taskgraph.Instances.g2
        | "g3" -> Batsched_taskgraph.Instances.g3
        | other -> fail "cycle.graph: unknown instance %S" other
      in
      let law =
        match Json.str_field "law" j with
        | Some "uniform" | None -> Uniform
        | Some "fastest" -> Fastest
        | Some "slowest" -> Slowest
        | Some other -> fail "cycle.law: unknown law %S" other
      in
      Graph { name; graph; law }
  | Some "bursts" ->
      let sub = positive_range ~scope:"cycle" in
      let count = sub ~default:{ lo = 1.0; hi = 3.0 } "count" j in
      let current = sub ~default:{ lo = 100.0; hi = 800.0 } "current" j in
      let duration = sub ~default:{ lo = 1.0; hi = 20.0 } "duration" j in
      Bursts { count; current; duration }
  | Some other -> fail "cycle.kind: expected graph or bursts, got %S" other
  | None -> fail "cycle: missing kind"

(* Upper bound on one cycle's length: every task at the slowest design
   point its law may draw, or the most bursts, each of the longest
   duration. *)
let longest_cycle = function
  | Graph { graph; law; _ } ->
      let point =
        match law with
        | Fastest -> Batsched_taskgraph.Task.fastest
        | Slowest | Uniform -> Batsched_taskgraph.Task.slowest
      in
      List.fold_left
        (fun acc t -> acc +. (point t).Batsched_taskgraph.Task.duration)
        0.0
        (Batsched_taskgraph.Graph.tasks graph)
  | Bursts { count; duration; _ } ->
      Float.max 1.0 (Float.trunc count.hi) *. duration.hi

let of_json j =
  try
    let horizon =
      match num_field "horizon" j with
      | Some h when h >= 1.0 -> int_of_float h
      | Some _ -> fail "horizon: must be >= 1"
      | None -> 200
    in
    let alpha =
      positive ~name:"alpha"
        (range_field ~name:"alpha"
           ~default:
             { lo = Batsched_battery.Cell.itsy.Batsched_battery.Cell.alpha;
               hi = Batsched_battery.Cell.itsy.Batsched_battery.Cell.alpha }
           j)
    in
    let soh =
      positive ~name:"soh"
        (range_field ~name:"soh" ~default:{ lo = 1.0; hi = 1.0 } j)
    in
    let period_factor =
      range_field ~name:"period_factor" ~default:{ lo = 1.0; hi = 2.0 } j
    in
    if period_factor.lo < 1.0 then
      fail "period_factor: must be >= 1 (the cycle has to fit the period)";
    let models =
      match Json.field "models" j with
      | Some (Json.Arr (_ :: _ as ms)) -> List.map model_of_json ms
      | Some (Json.Arr []) -> fail "models: must not be empty"
      | Some _ -> fail "models: expected an array"
      | None -> fail "missing required field models"
    in
    let cycle =
      match Json.field "cycle" j with
      | Some c -> cycle_of_json c
      | None -> fail "missing required field cycle"
    in
    (* A PDE span is at most one period, so the longest is
       period_factor.hi times the longest cycle; the solver refuses a
       span of 2^53 steps or more. *)
    let longest_span = period_factor.hi *. longest_cycle cycle in
    List.iter
      (fun m ->
        match m.model with
        | Pde { dt; _ } when not (longest_span /. dt < 0x1p53) ->
            fail "pde.dt: too small for spans of up to %g min (2^53 steps)"
              longest_span
        | _ -> ())
      models;
    Ok { horizon; alpha; soh; period_factor; models; cycle }
  with Bad msg -> Error ("fleet spec: " ^ msg)

let of_file path =
  match Json.of_file path with
  | j -> of_json j
  | exception Json.Bad_json msg -> Error ("fleet spec: bad JSON: " ^ msg)
  | exception Sys_error msg -> Error ("fleet spec: " ^ msg)

let default =
  { horizon = 200;
    alpha = { lo = 30000.0; hi = 45000.0 };
    soh = { lo = 0.8; hi = 1.0 };
    period_factor = { lo = 1.2; hi = 2.5 };
    models =
      [ { label = "ideal"; weight = 0.5; model = Ideal };
        { label = "peukert";
          weight = 1.0;
          model =
            Peukert
              { exponent = { lo = 1.05; hi = 1.3 };
                reference_current = { lo = 100.0; hi = 100.0 } } };
        { label = "rakhmatov";
          weight = 2.0;
          model =
            Rakhmatov
              { beta = { lo = 0.2; hi = 0.6 };
                terms = Batsched_numeric.Series.default_terms } };
        { label = "kibam";
          weight = 1.0;
          model =
            Kibam
              { c = { lo = 0.3; hi = 0.7 };
                k_prime = { lo = 0.02; hi = 0.1 } } } ];
    (* sized so lifetimes spread across the default horizon: [Sampler]
       rounds the count down, so every cycle is one burst, and a mean
       draw (~150 mA for ~3 min) costs ~450 mA*min per cycle against
       alpha 30k-45k mA*min, i.e. dozens of cycles, while the lightest
       draws outlive the horizon and exercise censoring *)
    cycle =
      Bursts
        { count = { lo = 1.0; hi = 2.0 };
          current = { lo = 50.0; hi = 250.0 };
          duration = { lo = 1.0; hi = 5.0 } }
  }
