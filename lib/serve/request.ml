open Batsched_taskgraph
open Batsched_battery
module Json = Batsched_obs.Json

type search = {
  algo : string;
  model_name : string;
  beta : float;
  seed : int;
  starts : int;
  steps : int option;
  t0 : float option;
  samples : int option;
}

type t = { id : string; graph : Graph.t; deadline : float; search : search }

type incoming = Submit of t | Cancel of string

let algos = [ "iterative"; "iterative-ms"; "annealing"; "random" ]

let models = [ "rakhmatov"; "kibam"; "peukert"; "ideal" ]

let model s =
  match s.model_name with
  | "ideal" -> Ideal.model
  | "peukert" -> Peukert.model ()
  | "kibam" -> Kibam.model ()
  | "rakhmatov" | _ -> Rakhmatov.model ~beta:s.beta ()

exception Reject of string

let reject fmt = Printf.ksprintf (fun s -> raise (Reject s)) fmt

(* Field [name] of [j] through [conv]: [None] when absent, a rejection
   when present with the wrong type. *)
let typed ~kind conv j name =
  Option.map
    (fun v ->
      match conv v with
      | Some x -> x
      | None -> reject "mistyped field: %s (expected %s)" name kind)
    (Json.field name j)

(* One request per line:
     {"id":"r1","graph":"graph g\ntask A 600:2 350:3\n...","deadline":9,
      "algo":"annealing","model":"rakhmatov","seed":7,"steps":8}
   or a cancellation: {"cancel":"r1"}.  Everything but [id], [graph]
   and [deadline] is optional.  Validation happens here, so a request
   that parses always runs. *)
let of_json line =
  match Json.parse line with
  | exception Json.Bad_json msg -> Error ("bad json: " ^ msg)
  | j -> (
      let str = typed ~kind:"a string" Json.to_str j in
      let num = typed ~kind:"a number" Json.to_num j in
      let required get name =
        match get name with
        | Some v -> v
        | None -> reject "missing field: %s" name
      in
      (* every integer up to 2^53 is exact; past 2^62, int_of_float
         overflows *)
      let integer v = Float.is_integer v && Float.abs v <= 0x1p53 in
      (* optional count knob, an integer from 1 to 2^53 when given *)
      let count name =
        Option.map
          (fun v ->
            if not (integer v) then
              reject "%s must be an integer from 1 to 2^53" name;
            let k = int_of_float v in
            if k < 1 then reject "%s must be >= 1" name;
            k)
          (num name)
      in
      try
        match str "cancel" with
        | Some id -> Ok (Cancel id)
        | None ->
            let id = required str "id" in
            let graph_src = required str "graph" in
            let deadline = required num "deadline" in
            if deadline <= 0.0 then reject "deadline must be positive";
            if not (Float.is_finite deadline) then
              reject "deadline must be finite";
            let graph =
              match Textio.of_string graph_src with
              | exception Textio.Parse_error { line; message } ->
                  reject "graph line %d: %s" line message
              | graph -> graph
            in
            let algo = Option.value (str "algo") ~default:"annealing" in
            let model_name = Option.value (str "model") ~default:"rakhmatov" in
            if not (List.mem algo algos) then reject "unknown algo: %s" algo;
            if not (List.mem model_name models) then
              reject "unknown model: %s" model_name;
            let beta =
              Option.value (num "beta") ~default:Rakhmatov.default_beta
            in
            if not (Rakhmatov.valid_beta beta) then
              reject "beta must be a number from 1e-150 to 1e150";
            let seed =
              match num "seed" with
              | None -> 0
              | Some v ->
                  if not (integer v) then
                    reject "seed must be an integer of magnitude at most 2^53";
                  int_of_float v
            in
            let starts = Option.value (count "starts") ~default:4 in
            let steps = count "steps" in
            let t0 = num "t0" in
            (* an infinite T0 never cools below the floor *)
            (match t0 with
            | Some v when not (v > 0.0 && Float.is_finite v) ->
                reject "t0 must be a positive finite number"
            | _ -> ());
            let samples = count "samples" in
            let search =
              { algo; model_name; beta; seed; starts; steps; t0; samples }
            in
            Ok (Submit { id; graph; deadline; search })
      with Reject msg -> Error msg)
