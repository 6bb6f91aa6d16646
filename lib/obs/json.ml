(* Minimal JSON reader shared by the bench comparator, the [basched
   report] subcommand, and the test suite.

   No JSON library ships in the image, so this is a small
   recursive-descent parser covering exactly the grammar our own
   exporters emit (objects, arrays, strings with escapes, numbers,
   true/false/null).  It began life in the obs test suite validating
   the Chrome trace export and moved here once runtime code needed to
   read bench snapshots and event streams. *)

type t =
  | Obj of (string * t) list
  | Arr of t list
  | Str of string
  | Num of float
  | Bool of bool
  | Null

exception Bad_json of string

(* The repo's own documents nest at most 5 deep.  The cap keeps the
   recursive descent's stack bounded, and it lets a hostile line (a
   serve request opening millions of brackets) be rejected after a few
   hundred bytes instead of after the whole line. *)
let max_depth = 256

let parse text =
  let pos = ref 0 in
  let len = String.length text in
  let peek () = if !pos < len then Some text.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at byte %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') -> advance (); skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some 'u' ->
              advance ();
              if !pos + 4 > len then fail "short \\u escape";
              String.iter
                (function
                  | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> ()
                  | _ -> fail "bad \\u escape")
                (String.sub text !pos 4);
              pos := !pos + 4;
              Buffer.add_char buf '?';
              go ()
          | Some (('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') as c) ->
              advance ();
              Buffer.add_char buf
                (match c with
                | 'b' -> '\b'
                | 'f' -> '\012'
                | 'n' -> '\n'
                | 'r' -> '\r'
                | 't' -> '\t'
                | c -> c);
              go ()
          | _ -> fail "bad escape")
      | Some c ->
          advance ();
          Buffer.add_char buf c;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let number_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> number_char c | None -> false) do
      advance ()
    done;
    if !pos = start then fail "expected number";
    match float_of_string_opt (String.sub text start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let literal word value =
    if !pos + String.length word <= len
       && String.sub text !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail ("expected " ^ word)
  in
  (* consume the bracket opening a container at nesting [depth] *)
  let open_nested depth =
    if depth >= max_depth then
      fail (Printf.sprintf "nesting deeper than %d" max_depth);
    advance ()
  in
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | Some '{' ->
        open_nested depth;
        skip_ws ();
        if peek () = Some '}' then begin advance (); Obj [] end
        else begin
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); members ((key, v) :: acc)
            | Some '}' -> advance (); Obj (List.rev ((key, v) :: acc))
            | _ -> fail "expected , or }"
          in
          members []
        end
    | Some '[' ->
        open_nested depth;
        skip_ws ();
        if peek () = Some ']' then begin advance (); Arr [] end
        else begin
          let rec elements acc =
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); elements (v :: acc)
            | Some ']' -> advance (); Arr (List.rev (v :: acc))
            | _ -> fail "expected , or ]"
          in
          elements []
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
    | None -> fail "unexpected end"
  in
  let v = parse_value 0 in
  skip_ws ();
  if !pos <> len then fail "trailing garbage";
  v

let field name = function
  | Obj members -> List.assoc_opt name members
  | _ -> None

let to_num = function Num f -> Some f | _ -> None

let to_str = function Str s -> Some s | _ -> None

let num_field name j = Option.bind (field name j) to_num

let str_field name j = Option.bind (field name j) to_str

let bool_field name j =
  match field name j with Some (Bool b) -> Some b | _ -> None

let of_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let n = in_channel_length ic in
      parse (really_input_string ic n))

(* Writer-side helpers shared by every hand-rolled exporter. *)
let add_number buf f =
  if Float.is_finite f then begin
    let s = Printf.sprintf "%.12g" f in
    let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
    Buffer.add_string buf s;
    if String.for_all (function '-' | '0' .. '9' -> true | _ -> false) s then
      Buffer.add_string buf ".0"
  end
  else Buffer.add_string buf "null"

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf
