open Batsched_taskgraph
open Batsched_battery

(* Task-level view over [Delta]: the evaluator below maps schedule
   moves (swap two adjacent tasks, repoint one task) onto positional
   interval moves and keeps the sequence / assignment mirrors in sync
   with the committed delta state. *)

type pending = No_move | Swap of int | Repoint of { task : int; col : int }

type t = {
  graph : Graph.t;
  delta : Delta.t;
  mutable seq : int array;   (* position -> task id *)
  mutable pos : int array;   (* task id -> position *)
  mutable cols : int array;  (* task id -> design-point column *)
  mutable pending : pending;
}

let point_of g seq cols k =
  let task = seq.(k) in
  let p = Task.point (Graph.task g task) cols.(task) in
  (p.Task.current, p.Task.duration)

let load t (s : Schedule.t) =
  let n = Graph.num_tasks t.graph in
  let seq = Array.of_list s.Schedule.sequence in
  if Array.length seq <> n then invalid_arg "Eval.load: sequence length";
  let pos = Array.make n 0 in
  Array.iteri (fun k task -> pos.(task) <- k) seq;
  let cols = Array.of_list (Assignment.to_list s.Schedule.assignment) in
  t.seq <- seq;
  t.pos <- pos;
  t.cols <- cols;
  t.pending <- No_move;
  Delta.load t.delta ~n ~point:(point_of t.graph seq cols)

let make ~model g (s : Schedule.t) =
  let t =
    { graph = g;
      delta = Delta.create model;
      seq = [||];
      pos = [||];
      cols = [||];
      pending = No_move }
  in
  load t s;
  t

let graph t = t.graph

let length t = Array.length t.seq

let sigma t = Delta.sigma t.delta

let finish t = Delta.finish t.delta

let task_at t k =
  if k < 0 || k >= Array.length t.seq then
    invalid_arg "Eval.task_at: position out of range";
  t.seq.(k)

let position t task =
  if task < 0 || task >= Array.length t.pos then
    invalid_arg "Eval.position: task out of range";
  t.pos.(task)

let column t task =
  if task < 0 || task >= Array.length t.cols then
    invalid_arg "Eval.column: task out of range";
  t.cols.(task)

let check_no_pending t name =
  match t.pending with
  | No_move -> ()
  | _ -> invalid_arg ("Eval." ^ name ^ ": uncommitted pending move")

(* Exchanging adjacent positions [k, k+1] preserves topological order
   iff there is no direct edge between the two tasks (a transitive
   precedence always has a witness between them, so only the direct
   edge can be violated) — an O(out-degree) check replacing the
   O(n + e) [Analysis.is_topological] sweep per candidate. *)
let swap_allowed t k =
  if k < 0 || k + 1 >= Array.length t.seq then
    invalid_arg "Eval.swap_allowed: position out of range";
  let a = t.seq.(k) and b = t.seq.(k + 1) in
  not (List.mem b (Graph.succs t.graph a))

let try_swap t k =
  check_no_pending t "try_swap";
  if not (swap_allowed t k) then
    invalid_arg "Eval.try_swap: swap violates a precedence edge";
  let r = Delta.try_swap t.delta k in
  t.pending <- Swap k;
  r

let try_repoint t ~task ~col =
  check_no_pending t "try_repoint";
  if task < 0 || task >= Array.length t.pos then
    invalid_arg "Eval.try_repoint: task out of range";
  let p = Task.point (Graph.task t.graph task) col in
  let r =
    Delta.try_set t.delta t.pos.(task) ~current:p.Task.current
      ~duration:p.Task.duration
  in
  t.pending <- Repoint { task; col };
  r

let commit t =
  (match t.pending with
  | No_move -> invalid_arg "Eval.commit: no pending move"
  | Swap k ->
      let a = t.seq.(k) and b = t.seq.(k + 1) in
      t.seq.(k) <- b;
      t.seq.(k + 1) <- a;
      t.pos.(a) <- k + 1;
      t.pos.(b) <- k
  | Repoint { task; col } -> t.cols.(task) <- col);
  t.pending <- No_move;
  Delta.commit t.delta

let discard t =
  (match t.pending with
  | No_move -> invalid_arg "Eval.discard: no pending move"
  | _ -> ());
  t.pending <- No_move;
  Delta.discard t.delta

let sequence t = Array.to_list t.seq

let assignment t = Assignment.of_list t.graph (Array.to_list t.cols)

(* The sequence is only ever mutated through precedence-checked
   adjacent swaps starting from a validated schedule, so it stays a
   topological order by construction — [unsafe_make] skips the O(n+e)
   re-validation. *)
let to_schedule t =
  check_no_pending t "to_schedule";
  Schedule.unsafe_make t.graph ~sequence:(sequence t)
    ~assignment:(assignment t)
