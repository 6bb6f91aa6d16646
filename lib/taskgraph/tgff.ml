exception Parse_error of { line : int; message : string }

type document = {
  graph : Graph.t;
  deadline : float option;
  period : float option;
}

let fail line message = raise (Parse_error { line; message })

(* Whitespace is blanks, tabs and carriage returns, so CRLF files read
   as their LF originals. *)
let tokens line_text =
  let without_comment =
    match String.index_opt line_text '#' with
    | Some i -> String.sub line_text 0 i
    | None -> line_text
  in
  String.map (function '\t' | '\r' -> ' ' | c -> c) without_comment
  |> String.split_on_char ' '
  |> List.filter (fun s -> s <> "")

type block =
  | Task_graph
  | Design_point of int
  | Other

(* Parsed, per-block state. *)
type accum = {
  mutable tasks : (string * int * int) list;  (* name, type, line *)
  mutable arcs : (string * string * int) list;  (* from, to, line *)
  mutable deadline : float option;
  mutable period : float option;
  columns : (int, (int, Task.design_point) Hashtbl.t) Hashtbl.t;
      (* design-point index -> type -> point; a later row of a type
         replaces an earlier one *)
  mutable graph_seen : bool;
}

let float_of ~line s =
  try float_of_string s with Failure _ -> fail line ("bad number: " ^ s)

let int_of ~line s =
  try int_of_string s with Failure _ -> fail line ("bad integer: " ^ s)

let parse_lines text =
  let acc =
    { tasks = []; arcs = []; deadline = None; period = None;
      columns = Hashtbl.create 8; graph_seen = false }
  in
  let block = ref Other in
  let in_first_graph = ref false in
  let handle line toks =
    match (!block, toks) with
    | _, [] -> ()
    | _, "@TASK_GRAPH" :: _ ->
        if acc.graph_seen then block := Other
        else begin
          block := Task_graph;
          in_first_graph := true;
          acc.graph_seen <- true
        end
    | _, "@DESIGN_POINT" :: idx :: _ ->
        let k = int_of ~line idx in
        block := Design_point k;
        if not (Hashtbl.mem acc.columns k) then
          Hashtbl.add acc.columns k (Hashtbl.create 64)
    | _, first :: _ when String.length first > 0 && first.[0] = '@' ->
        block := Other
    | Task_graph, "}" :: _ ->
        block := Other;
        in_first_graph := false
    | Design_point _, "}" :: _ -> block := Other
    | Task_graph, toks -> (
        match toks with
        | [ "PERIOD"; p ] -> acc.period <- Some (float_of ~line p)
        | [ "TASK"; name; "TYPE"; ty ] ->
            acc.tasks <- (name, int_of ~line ty, line) :: acc.tasks
        | "ARC" :: _ :: "FROM" :: a :: "TO" :: b :: _ ->
            acc.arcs <- (a, b, line) :: acc.arcs
        | "HARD_DEADLINE" :: _ :: "ON" :: _ :: "AT" :: at :: _ ->
            if acc.deadline = None then acc.deadline <- Some (float_of ~line at)
        | [ "{" ] -> ()
        | kw :: _ -> fail line ("unknown task-graph attribute: " ^ kw)
        | [] -> ())
    | Design_point k, toks -> (
        match toks with
        | [ "{" ] -> ()
        | [ ty; cur; dur ] | [ ty; cur; dur; _ ] ->
            (* fields are read voltage, duration, current, type: a
               row with several bad fields reports the first bad one
               in that order *)
            let voltage =
              match toks with
              | [ _; _; _; v ] -> float_of ~line v
              | _ -> 1.0
            in
            let duration = float_of ~line dur in
            let current = float_of ~line cur in
            let ty = int_of ~line ty in
            Hashtbl.replace (Hashtbl.find acc.columns k) ty
              { Task.current; duration; voltage }
        | _ -> fail line "design-point row needs: type current duration [voltage]")
    | Other, _ -> ()
  in
  List.iteri
    (fun idx line_text -> handle (idx + 1) (tokens line_text))
    (String.split_on_char '\n' text);
  acc

let of_string text =
  let acc = parse_lines text in
  let named = List.rev acc.tasks in
  if named = [] then fail 0 "no tasks (need a @TASK_GRAPH block)";
  let columns =
    List.sort compare (Hashtbl.fold (fun k _ ks -> k :: ks) acc.columns [])
  in
  if columns = [] then fail 0 "no @DESIGN_POINT blocks";
  (* columns must be 0..m-1 *)
  List.iteri
    (fun expected k ->
      if k <> expected then fail 0 "design-point blocks must be numbered 0..m-1")
    columns;
  let rows = List.map (Hashtbl.find acc.columns) columns in
  let point_of ~line ty k rows =
    match Hashtbl.find_opt rows ty with
    | Some p -> p
    | None ->
        fail line
          (Printf.sprintf "task type %d missing from @DESIGN_POINT %d" ty k)
  in
  let task_list =
    List.mapi
      (fun id (name, ty, line) ->
        let points = List.map2 (point_of ~line ty) columns rows in
        try Task.make ~id ~name points
        with Invalid_argument msg -> fail line (name ^ ": " ^ msg))
      named
  in
  (* an arc to a repeated name means its first task *)
  let ids = Hashtbl.create 64 in
  List.iteri
    (fun i (n, _, _) -> if not (Hashtbl.mem ids n) then Hashtbl.add ids n i)
    named;
  let index_of name line =
    match Hashtbl.find_opt ids name with
    | Some i -> i
    | None -> fail line ("unknown task in arc: " ^ name)
  in
  let edges =
    List.rev_map
      (fun (a, b, line) -> (index_of a line, index_of b line))
      acc.arcs
  in
  let graph =
    try Graph.make ~label:"tgff" ~edges task_list
    with Invalid_argument msg -> fail 0 msg
  in
  { graph; deadline = acc.deadline; period = acc.period }

let to_string ?deadline ?period g =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "@TASK_GRAPH 0 {\n";
  (match period with
  | Some p -> Buffer.add_string buf (Printf.sprintf "  PERIOD %g\n" p)
  | None -> ());
  List.iter
    (fun (t : Task.t) ->
      Buffer.add_string buf
        (Printf.sprintf "  TASK %s  TYPE %d\n" t.Task.name t.Task.id))
    (Graph.tasks g);
  List.iteri
    (fun i (a, b) ->
      Buffer.add_string buf
        (Printf.sprintf "  ARC a%d  FROM %s  TO %s  TYPE 0\n" i
           (Graph.task g a).Task.name (Graph.task g b).Task.name))
    (Graph.edges g);
  (match deadline with
  | Some d ->
      let sink =
        match Graph.sinks g with s :: _ -> s | [] -> Graph.num_tasks g - 1
      in
      Buffer.add_string buf
        (Printf.sprintf "  HARD_DEADLINE d0 ON %s AT %g\n"
           (Graph.task g sink).Task.name d)
  | None -> ());
  Buffer.add_string buf "}\n";
  let m = Graph.num_points g in
  for k = 0 to m - 1 do
    Buffer.add_string buf (Printf.sprintf "@DESIGN_POINT %d {\n" k);
    Buffer.add_string buf "# type  current  duration  voltage\n";
    List.iter
      (fun (t : Task.t) ->
        let p = Task.point t k in
        Buffer.add_string buf
          (Printf.sprintf "  %d  %.12g  %.12g  %.12g\n" t.Task.id
             p.Task.current p.Task.duration p.Task.voltage))
      (Graph.tasks g);
    Buffer.add_string buf "}\n"
  done;
  Buffer.contents buf

let load path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  of_string text

let save ?deadline ?period path g =
  let oc = open_out path in
  output_string oc (to_string ?deadline ?period g);
  close_out oc
