(* Incremental JSONL consumption tolerating torn tails.

   Both consumers of an events stream — [basched report] on a file
   that may come from a run killed mid-write, and [basched watch]
   tailing a file another process is still appending to — face the
   same hazard: the final line may be incomplete (no newline yet, or a
   truncated JSON object).  A torn tail is not an error; it is the
   normal state of a live file between two writes.

   The tailer therefore frames on newlines: bytes after the last
   newline stay buffered until the line completes.  A {e complete}
   line that fails to parse is counted in [bad] and skipped — on a
   truncated file that is exactly the torn final record; mid-stream it
   would indicate corruption, which the caller can surface via the
   count without losing the rest of the stream. *)

type t = {
  partial : Buffer.t;           (* bytes after the last newline seen *)
  mutable bad : int;            (* complete lines that failed to parse *)
}

let create () = { partial = Buffer.create 256; bad = 0 }

let bad t = t.bad

let parse_line t acc line =
  if String.trim line = "" then acc
  else
    match Json.parse line with
    | v -> v :: acc
    | exception Json.Bad_json _ ->
        t.bad <- t.bad + 1;
        acc

let feed t chunk =
  let acc = ref [] in
  let flush_line () =
    let line = Buffer.contents t.partial in
    Buffer.clear t.partial;
    acc := parse_line t !acc line
  in
  String.iter
    (fun c -> if c = '\n' then flush_line () else Buffer.add_char t.partial c)
    chunk;
  List.rev !acc

(* End-of-input: a buffered partial line is all we will ever get —
   parse it if it happens to be complete JSON (a writer killed between
   the line and its newline), otherwise count it as torn. *)
let finish t =
  if Buffer.length t.partial = 0 then []
  else begin
    let line = Buffer.contents t.partial in
    Buffer.clear t.partial;
    List.rev (parse_line t [] line)
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let n = in_channel_length ic in
      let t = create () in
      let records = feed t (really_input_string ic n) in
      let records = records @ finish t in
      (records, t.bad))
