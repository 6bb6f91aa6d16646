(* Trace-event timestamps are microseconds; emit them with nanosecond
   resolution relative to the sink epoch. *)
let us_of epoch ns = Int64.to_float (Int64.sub ns epoch) /. 1e3

let track_name = function 0 -> "main domain" | w -> Printf.sprintf "worker %d" w

let to_buffer buf sink =
  let spans = Sink.spans sink in
  let epoch = Sink.epoch_ns sink in
  Buffer.add_string buf "{\"traceEvents\":[\n";
  let first = ref true in
  let emit line =
    if not !first then Buffer.add_string buf ",\n";
    first := false;
    Buffer.add_string buf line
  in
  emit
    "  {\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
     \"args\":{\"name\":\"batsched\"}}";
  let tracks =
    List.sort_uniq Int.compare
      (List.map (fun (s : Sink.span) -> s.Sink.track) spans)
  in
  List.iter
    (fun w ->
      emit
        (Printf.sprintf
           "  {\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_name\",\
            \"args\":{\"name\":\"%s\"}}"
           w (Json.escape_string (track_name w))))
    tracks;
  List.iter
    (fun (s : Sink.span) ->
      emit
        (Printf.sprintf
           "  {\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"name\":\"%s\",\
            \"cat\":\"batsched\",\"ts\":%.3f,\"dur\":%.3f,\
            \"args\":{\"minor_words\":%.0f}}"
           s.Sink.track (Json.escape_string s.Sink.name)
           (us_of epoch s.Sink.start_ns)
           (Int64.to_float s.Sink.dur_ns /. 1e3)
           s.Sink.alloc_words))
    spans;
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\"}\n"

let to_string sink =
  let buf = Buffer.create 4096 in
  to_buffer buf sink;
  Buffer.contents buf

let write sink path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string sink))
