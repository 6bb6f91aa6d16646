(* Prometheus/OpenMetrics text exposition of the process's telemetry:
   every [Probe] counter, every registered [Histogram], and the GC
   quick-stat gauges.  This is the scrape format the ROADMAP's
   scheduling daemon will serve; until then the binaries dump one
   exposition per run behind [--metrics FILE].

   Format rules honoured (and linted in the test suite): one TYPE line
   per family, counter samples end in [_total], histogram buckets are
   cumulative with increasing [le] plus a [+Inf] bucket equal to
   [_count], and the exposition ends with [# EOF]. *)

module Histogram = Batsched_numeric.Histogram

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    name

(* The text exposition defines exactly three label-value escapes:
   backslash, double-quote and line-feed.  [Json.escape_string] would
   also emit \t and \uXXXX, which Prometheus parsers reject, so label
   escaping is its own little function. *)
let escape_label v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (function
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let add_counters buf (c : Batsched_numeric.Probe.t) =
  Buffer.add_string buf
    "# TYPE batsched_counter counter\n\
     # HELP batsched_counter Work counters from Batsched_numeric.Probe.\n";
  let sample name v =
    Printf.bprintf buf "batsched_counter_total{name=\"%s\"} %d\n"
      (escape_label name) v
  in
  List.iter
    (fun (name, get) -> sample name (get c))
    Batsched_numeric.Probe.fields;
  List.iter
    (fun (name, v) -> sample name v)
    (Batsched_numeric.Probe.named_counts c)

let add_histogram buf name h =
  let family = "batsched_" ^ sanitize name in
  Printf.bprintf buf "# TYPE %s histogram\n" family;
  let cumulative = ref 0 in
  List.iter
    (fun (i, n) ->
      cumulative := !cumulative + n;
      Printf.bprintf buf "%s_bucket{le=\"%.17g\"} %d\n" family
        (Histogram.bucket_upper i) !cumulative)
    (List.filter
       (fun (i, _) -> Histogram.bucket_upper i < Float.infinity)
       (Histogram.nonzero_buckets h));
  Printf.bprintf buf "%s_bucket{le=\"+Inf\"} %d\n" family (Histogram.count h);
  Printf.bprintf buf "%s_sum %.17g\n" family (Histogram.sum h);
  Printf.bprintf buf "%s_count %d\n" family (Histogram.count h)

let add_gc buf =
  let s = Gc.quick_stat () in
  let gauge name v =
    Printf.bprintf buf "# TYPE %s gauge\n%s %.17g\n" name name v
  in
  gauge "batsched_gc_minor_words" s.Gc.minor_words;
  gauge "batsched_gc_promoted_words" s.Gc.promoted_words;
  gauge "batsched_gc_major_words" s.Gc.major_words;
  gauge "batsched_gc_minor_collections" (float_of_int s.Gc.minor_collections);
  gauge "batsched_gc_major_collections" (float_of_int s.Gc.major_collections);
  gauge "batsched_gc_heap_words" (float_of_int s.Gc.heap_words);
  gauge "batsched_gc_compactions" (float_of_int s.Gc.compactions)

let to_string () =
  let buf = Buffer.create 4096 in
  add_counters buf (Batsched_numeric.Probe.totals ());
  List.iter (fun (name, h) -> add_histogram buf name h) (Histogram.snapshot ());
  add_gc buf;
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

let write_file path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string ()))
