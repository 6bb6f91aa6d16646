type t = {
  label : string;
  tasks : Task.t array;
  preds : int list array;
  succs : int list array;
}

(* Kahn's algorithm; returns true iff all vertices are drained.  The
   ready vertices sit on an int-array stack: only the count matters. *)
let acyclic ~n ~succs ~indegree =
  let indeg = Array.copy indegree in
  let stack = Array.make n 0 and top = ref 0 in
  Array.iteri
    (fun i d ->
      if d = 0 then begin
        stack.(!top) <- i;
        incr top
      end)
    indeg;
  let drained = ref 0 in
  let rec release = function
    | [] -> ()
    | w :: rest ->
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then begin
          stack.(!top) <- w;
          incr top
        end;
        release rest
  in
  while !top > 0 do
    decr top;
    incr drained;
    release succs.(stack.(!top))
  done;
  !drained = n

let make ?(label = "") ~edges tasks =
  let n = List.length tasks in
  if n = 0 then invalid_arg "Graph.make: empty task list";
  let arr = Array.make n None in
  List.iter
    (fun (t : Task.t) ->
      if t.Task.id < 0 || t.Task.id >= n then
        invalid_arg "Graph.make: task id out of range";
      if arr.(t.Task.id) <> None then invalid_arg "Graph.make: duplicate task id";
      arr.(t.Task.id) <- Some t)
    tasks;
  let tasks_arr =
    Array.map (function Some t -> t | None -> assert false) arr
  in
  let m = Task.num_points tasks_arr.(0) in
  Array.iter
    (fun t ->
      if Task.num_points t <> m then
        invalid_arg "Graph.make: tasks disagree on design-point count")
    tasks_arr;
  (* Adjacency lists, then each sorted with duplicate edges collapsed:
     no edge set or tuple per edge.  Short lists skip the sort, whose
     local closures cost more than the list. *)
  let sorted = function
    | ([] | [ _ ]) as l -> l
    | l -> List.sort_uniq Int.compare l
  in
  let preds = Array.make n [] and succs = Array.make n [] in
  List.iter
    (fun (a, b) ->
      if a < 0 || a >= n || b < 0 || b >= n then
        invalid_arg "Graph.make: edge endpoint out of range";
      if a = b then invalid_arg "Graph.make: self loop";
      succs.(a) <- b :: succs.(a);
      preds.(b) <- a :: preds.(b))
    edges;
  Array.iteri (fun i l -> preds.(i) <- sorted l) preds;
  Array.iteri (fun i l -> succs.(i) <- sorted l) succs;
  let indegree = Array.map List.length preds in
  if not (acyclic ~n ~succs ~indegree) then invalid_arg "Graph.make: cycle detected";
  { label; tasks = tasks_arr; preds; succs }

let label g = g.label

let num_tasks g = Array.length g.tasks

let num_points g = Task.num_points g.tasks.(0)

let task g i =
  if i < 0 || i >= num_tasks g then invalid_arg "Graph.task: id out of range";
  g.tasks.(i)

let tasks g = Array.to_list g.tasks

let preds g i =
  if i < 0 || i >= num_tasks g then invalid_arg "Graph.preds: id out of range";
  g.preds.(i)

let succs g i =
  if i < 0 || i >= num_tasks g then invalid_arg "Graph.succs: id out of range";
  g.succs.(i)

let edges g =
  let acc = ref [] in
  Array.iteri
    (fun a bs -> List.iter (fun b -> acc := (a, b) :: !acc) bs)
    g.succs;
  List.sort compare !acc

let num_edges g = Array.fold_left (fun acc l -> acc + List.length l) 0 g.succs

let sources g =
  List.filteri (fun i _ -> g.preds.(i) = []) (List.init (num_tasks g) Fun.id)

let sinks g =
  List.filteri (fun i _ -> g.succs.(i) = []) (List.init (num_tasks g) Fun.id)

let map_tasks f g =
  let tasks' =
    Array.to_list
      (Array.map
         (fun t ->
           let t' = f t in
           if t'.Task.id <> t.Task.id then
             invalid_arg "Graph.map_tasks: id changed";
           t')
         g.tasks)
  in
  make ~label:g.label ~edges:(edges g) tasks'

let pp fmt g =
  Format.fprintf fmt "graph %S: %d tasks, %d points, %d edges@."
    g.label (num_tasks g) (num_points g) (num_edges g);
  Array.iter (fun t -> Format.fprintf fmt "  %a@." Task.pp t) g.tasks;
  List.iter (fun (a, b) -> Format.fprintf fmt "  %d -> %d@." a b) (edges g)
