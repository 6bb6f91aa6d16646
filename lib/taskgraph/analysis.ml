open Batsched_numeric

let is_topological g seq =
  let n = Graph.num_tasks g in
  if List.length seq <> n then false
  else begin
    let position = Array.make n (-1) in
    let ok = ref true in
    List.iteri
      (fun pos v ->
        if v < 0 || v >= n || position.(v) >= 0 then ok := false
        else position.(v) <- pos)
      seq;
    let rec after a = function
      | [] -> true
      | b :: rest -> position.(a) < position.(b) && after a rest
    in
    let rec edges_ordered a =
      a >= n || (after a (Graph.succs g a) && edges_ordered (a + 1))
    in
    !ok && edges_ordered 0
  end

(* The incumbent of each scan is an index and a float local, not an
   option of a tuple, so a scan allocates nothing. *)
let list_schedule_weights g weight =
  let n = Graph.num_tasks g in
  if Array.length weight <> n then
    invalid_arg "Analysis.list_schedule_weights: length mismatch";
  let remaining_preds = Array.init n (fun i -> List.length (Graph.preds g i)) in
  let scheduled = Array.make n false in
  let rec release = function
    | [] -> ()
    | w :: rest ->
        remaining_preds.(w) <- remaining_preds.(w) - 1;
        release rest
  in
  let order = ref [] in
  for _ = 1 to n do
    let best = ref (-1) and best_w = ref 0.0 in
    for v = 0 to n - 1 do
      if (not scheduled.(v)) && remaining_preds.(v) = 0 then begin
        let w = weight.(v) in
        if !best < 0 || not (!best_w >= w) then begin
          best := v;
          best_w := w
        end
      end
    done;
    if !best < 0 then invalid_arg "Analysis.list_schedule: graph not acyclic?";
    let v = !best in
    scheduled.(v) <- true;
    release (Graph.succs g v);
    order := v :: !order
  done;
  List.rev !order

let list_schedule ~weight g =
  list_schedule_weights g (Array.init (Graph.num_tasks g) weight)

(* Tie-break note: the scan goes v = 0 .. n-1 and only a strictly larger
   weight displaces the incumbent, so equal weights resolve to the
   smaller id — the deterministic rule documented in DESIGN.md. *)

let any_topological_order g = list_schedule ~weight:(fun _ -> 0.0) g

let all_topological_orders ?(limit = 1_000_000) g =
  let n = Graph.num_tasks g in
  let remaining_preds = Array.init n (fun i -> List.length (Graph.preds g i)) in
  let scheduled = Array.make n false in
  let results = ref [] and count = ref 0 in
  let rec go acc depth =
    if !count >= limit then ()
    else if depth = n then begin
      incr count;
      results := List.rev acc :: !results
    end
    else
      for v = 0 to n - 1 do
        if (not scheduled.(v)) && remaining_preds.(v) = 0 && !count < limit
        then begin
          scheduled.(v) <- true;
          List.iter
            (fun w -> remaining_preds.(w) <- remaining_preds.(w) - 1)
            (Graph.succs g v);
          go (v :: acc) (depth + 1);
          List.iter
            (fun w -> remaining_preds.(w) <- remaining_preds.(w) + 1)
            (Graph.succs g v);
          scheduled.(v) <- false
        end
      done
  in
  go [] 0;
  List.rev !results

let count_topological_orders ?limit g =
  List.length (all_topological_orders ?limit g)

let descendants g v =
  let n = Graph.num_tasks g in
  if v < 0 || v >= n then invalid_arg "Analysis.descendants: id out of range";
  let seen = Array.make n false in
  let rec visit u =
    if not seen.(u) then begin
      seen.(u) <- true;
      List.iter visit (Graph.succs g u)
    end
  in
  visit v;
  List.filter (fun i -> seen.(i)) (List.init n Fun.id)

(* [Kahan.sum_list] over column [j]'s durations or energies in task-id
   order, each handed to [Kahan.Acc.add_at] in the cell [x]: a closure
   or a list would box it. *)
let column_sum g j ~energy =
  let acc = Kahan.Acc.create () and x = [| 0.0 |] in
  for i = 0 to Graph.num_tasks g - 1 do
    let p = Task.point (Graph.task g i) j in
    x.(0) <-
      (if energy then p.Task.current *. p.Task.voltage *. p.Task.duration
       else p.Task.duration);
    Kahan.Acc.add_at acc x 0
  done;
  Kahan.Acc.sum acc

let column_time g j =
  let m = Graph.num_points g in
  if j < 0 || j >= m then invalid_arg "Analysis.column_time: column out of range";
  column_sum g j ~energy:false

let serial_time_bounds g =
  let m = Graph.num_points g in
  (column_time g 0, column_time g (m - 1))

let current_range g =
  List.fold_left
    (fun (lo, hi) t -> (Float.min lo (Task.min_current t), Float.max hi (Task.max_current t)))
    (Float.infinity, Float.neg_infinity)
    (Graph.tasks g)

let energy_bounds g =
  let m = Graph.num_points g in
  (column_sum g (m - 1) ~energy:true, column_sum g 0 ~energy:true)
