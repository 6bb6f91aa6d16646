exception Parse_error of { line : int; message : string }

let fail line message = raise (Parse_error { line; message })

(* 10^0 .. 10^22: every power of ten a double holds exactly. *)
let exact_pow10 =
  [| 1e0; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12;
     1e13; 1e14; 1e15; 1e16; 1e17; 1e18; 1e19; 1e20; 1e21; 1e22 |]

(* Clinger's fast path.  A plain decimal [-]ddd[.ddd] with at most 15
   significant digits and at most 22 fraction digits is m / 10^k with
   both m (< 10^15 < 2^53) and 10^k exact doubles, so the one rounding
   of the division is the correctly rounded value: [float_of_string]'s
   answer, bit for bit.  Writes it to [dst.(k)] and returns [true];
   returns [false] for anything else (exponents, underscores, hex,
   more digits), which the caller hands to [float_of_string]. *)
let decimal_into s pos len dst k =
  let stop = pos + len in
  let neg = len > 0 && s.[pos] = '-' in
  let i = ref (if len > 0 && (neg || s.[pos] = '+') then pos + 1 else pos) in
  let mant = ref 0 and digits = ref 0 and significant = ref 0 in
  let frac = ref 0 and dot = ref false and plain = ref true in
  while !plain && !i < stop do
    let c = s.[!i] in
    if c >= '0' && c <= '9' then begin
      incr digits;
      if !dot then incr frac;
      if !mant > 0 || c <> '0' then incr significant;
      (* past 15 significant digits [mant] may wrap; it is unused then *)
      mant := (!mant * 10) + (Char.code c - Char.code '0')
    end
    else if c = '.' && not !dot then dot := true
    else plain := false;
    incr i
  done;
  if !plain && !digits > 0 && !significant <= 15 && !frac <= 22 then begin
    let v = float_of_int !mant /. exact_pow10.(!frac) in
    dst.(k) <- (if neg then -.v else v);
    true
  end
  else false

(* [dst.(k) <-] the number in [s.[pos] .. s.[pos + len - 1]].
   @raise Failure as [float_of_string]. *)
let number_into s pos len dst k =
  if not (decimal_into s pos len dst k) then
    dst.(k) <- float_of_string (String.sub s pos len)

(* Whitespace is blanks, tabs and carriage returns, so CRLF files read
   as their LF originals. *)
let[@inline] is_blank c = c = ' ' || c = '\t' || c = '\r'

(* Whether [s.[a] .. s.[b - 1]] is [word].  Top-level recursion: a
   local one would build a closure per call. *)
let rec same_from s a word j =
  j >= String.length word || (s.[a + j] = word.[j] && same_from s a word (j + 1))

let span_is s a b word = b - a = String.length word && same_from s a word 0

(* One pass over the text: each line is cut at its first '#' and split
   into tokens held as offsets, so only the strings the graph keeps
   (names, the label, edge endpoints) are copied out.  Errors are
   reported in this order: syntax errors in line order, then "no
   tasks", then the first task (in file order) [Task.make] rejects,
   then the edges, then [Graph.make]. *)
let of_string text =
  let len = String.length text in
  let label = ref "" in
  let tasks = ref [] (* Task.t in reverse order *) in
  let task_error = ref None (* the first task Task.make rejected *) in
  let ids = Hashtbl.create 64 (* name -> id, the task's line order *) in
  let edges = ref [] (* (name, name, line) *) in
  let first = ref (Array.make 16 0) and last = ref (Array.make 16 0) in
  let count = ref 0 in
  let push a b =
    if !count = Array.length !first then begin
      let grow arr = Array.append arr (Array.make (Array.length arr) 0) in
      first := grow !first;
      last := grow !last
    end;
    !first.(!count) <- a;
    !last.(!count) <- b;
    incr count
  in
  let tok k = String.sub text !first.(k) (!last.(k) - !first.(k)) in
  let tok_is k word = span_is text !first.(k) !last.(k) word in
  let point = Array.make 3 0.0 (* current, duration, voltage *) in
  (* the design points in tokens k .. count - 1, in order *)
  let rec points line k =
    if k >= !count then []
    else begin
      let a = !first.(k) and b = !last.(k) in
      let c1 = ref (-1) and c2 = ref (-1) and ok = ref true in
      for j = a to b - 1 do
        if text.[j] = ':' then
          if !c1 < 0 then c1 := j else if !c2 < 0 then c2 := j else ok := false
      done;
      let d_end = if !c2 < 0 then b else !c2 in
      (try
         if !ok && !c1 >= 0 then begin
           number_into text a (!c1 - a) point 0;
           number_into text (!c1 + 1) (d_end - !c1 - 1) point 1;
           if !c2 < 0 then point.(2) <- 1.0
           else number_into text (!c2 + 1) (b - !c2 - 1) point 2
         end
         else ok := false
       with Failure _ -> ok := false);
      if not !ok then fail line ("bad design point: " ^ tok k);
      let p =
        { Task.current = point.(0); duration = point.(1); voltage = point.(2) }
      in
      p :: points line (k + 1)
    end
  in
  let task_line line =
    let name = tok 1 in
    if !count = 2 then fail line "task without design points";
    if Hashtbl.mem ids name then fail line ("duplicate task name: " ^ name);
    let id = Hashtbl.length ids in
    Hashtbl.add ids name id;
    match Task.make ~id ~name (points line 2) with
    | t -> tasks := t :: !tasks
    | exception Invalid_argument msg ->
        if !task_error = None then task_error := Some (name ^ ": " ^ msg)
  in
  let rec lines pos line =
    let eol = ref pos in
    while !eol < len && text.[!eol] <> '\n' do
      incr eol
    done;
    let cut = ref pos in
    while !cut < !eol && text.[!cut] <> '#' do
      incr cut
    done;
    count := 0;
    let j = ref pos in
    while !j < !cut do
      if is_blank text.[!j] then incr j
      else begin
        let a = !j in
        while !j < !cut && not (is_blank text.[!j]) do
          incr j
        done;
        push a !j
      end
    done;
    if !count > 0 then begin
      if tok_is 0 "graph" then
        label := String.concat " " (List.init (!count - 1) (fun k -> tok (k + 1)))
      else if tok_is 0 "task" && !count >= 2 then task_line line
      else if tok_is 0 "edge" then
        if !count = 3 then edges := (tok 1, tok 2, line) :: !edges
        else fail line "edge needs exactly two endpoints"
      else fail line ("unknown keyword: " ^ tok 0)
    end;
    if !eol < len then lines (!eol + 1) (line + 1)
  in
  lines 0 1;
  if Hashtbl.length ids = 0 then fail 0 "no tasks";
  Option.iter (fail 0) !task_error;
  let index_of name line =
    match Hashtbl.find_opt ids name with
    | Some id -> id
    | None -> fail line ("unknown task in edge: " ^ name)
  in
  let edge_list =
    List.rev_map (fun (a, b, line) -> (index_of a line, index_of b line)) !edges
  in
  try Graph.make ~label:!label ~edges:edge_list (List.rev !tasks)
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
