exception Parse_error of { line : int; message : string }

let fail line message = raise (Parse_error { line; message })

let parse_point ~line s =
  match String.split_on_char ':' s with
  | [ i; d ] | [ i; d; _ ] as parts -> (
      let v =
        match parts with
        | [ _; _; v ] -> v
        | _ -> "1"
      in
      try (float_of_string i, float_of_string d, float_of_string v)
      with Failure _ -> fail line ("bad design point: " ^ s))
  | _ -> fail line ("bad design point: " ^ s)

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

let of_string text =
  let lines = String.split_on_char '\n' text in
  let label = ref "" in
  let tasks = ref [] (* (name, points) in reverse order *) in
  let ids = Hashtbl.create 64 (* name -> id, the task's line order *) in
  let edges = ref [] (* (name, name, line) *) in
  List.iteri
    (fun idx line_text ->
      let line = idx + 1 in
      match tokens line_text with
      | [] -> ()
      | "graph" :: rest -> label := String.concat " " rest
      | "task" :: name :: points ->
          if points = [] then fail line "task without design points";
          if Hashtbl.mem ids name then
            fail line ("duplicate task name: " ^ name);
          Hashtbl.add ids name (Hashtbl.length ids);
          tasks := (name, List.map (parse_point ~line) points) :: !tasks
      | [ "edge"; a; b ] -> edges := (a, b, line) :: !edges
      | "edge" :: _ -> fail line "edge needs exactly two endpoints"
      | keyword :: _ -> fail line ("unknown keyword: " ^ keyword))
    lines;
  let named = List.rev !tasks in
  if named = [] then fail 0 "no tasks";
  let index_of name line =
    match Hashtbl.find_opt ids name with
    | Some id -> id
    | None -> fail line ("unknown task in edge: " ^ name)
  in
  let task_list =
    List.mapi
      (fun id (name, pts) ->
        let points =
          List.map
            (fun (current, duration, voltage) ->
              { Task.current; duration; voltage })
            pts
        in
        try Task.make ~id ~name points
        with Invalid_argument msg -> fail 0 (name ^ ": " ^ msg))
      named
  in
  let edge_list =
    List.rev_map (fun (a, b, line) -> (index_of a line, index_of b line)) !edges
  in
  try Graph.make ~label:!label ~edges:edge_list task_list
  with Invalid_argument msg -> fail 0 msg

let float_str x =
  (* shortest representation that round-trips *)
  let s = Printf.sprintf "%.12g" x in
  s

let to_string g =
  let buf = Buffer.create 1024 in
  if Graph.label g <> "" then
    Buffer.add_string buf (Printf.sprintf "graph %s\n" (Graph.label g));
  List.iter
    (fun (t : Task.t) ->
      Buffer.add_string buf (Printf.sprintf "task %s" t.Task.name);
      Array.iter
        (fun (p : Task.design_point) ->
          Buffer.add_string buf
            (Printf.sprintf " %s:%s:%s" (float_str p.Task.current)
               (float_str p.Task.duration) (float_str p.Task.voltage)))
        t.Task.points;
      Buffer.add_char buf '\n')
    (Graph.tasks g);
  List.iter
    (fun (a, b) ->
      Buffer.add_string buf
        (Printf.sprintf "edge %s %s\n" (Graph.task g a).Task.name
           (Graph.task g b).Task.name))
    (Graph.edges g);
  Buffer.contents buf

let load path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  of_string text

let save path g =
  let oc = open_out path in
  output_string oc (to_string g);
  close_out oc

let to_dot g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph %S {\n" (Graph.label g));
  Buffer.add_string buf "  rankdir=TB;\n  node [shape=box];\n";
  List.iter
    (fun (t : Task.t) ->
      let fast = Task.fastest t and slow = Task.slowest t in
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"%s\\n%.0f-%.0f mA, %.1f-%.1f min\"];\n"
           t.Task.id t.Task.name slow.Task.current fast.Task.current
           fast.Task.duration slow.Task.duration))
    (Graph.tasks g);
  List.iter
    (fun (a, b) -> Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" a b))
    (Graph.edges g);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
