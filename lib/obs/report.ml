open Batsched_numeric

let pct hits misses =
  let total = hits + misses in
  if total = 0 then None
  else Some (100.0 *. float_of_int hits /. float_of_int total, total)

let by_phase spans =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (s : Sink.span) ->
      let ms = Int64.to_float s.Sink.dur_ns /. 1e6 in
      let ds, ws =
        try Hashtbl.find tbl s.Sink.name with Not_found -> ([], [])
      in
      Hashtbl.replace tbl s.Sink.name
        (ms :: ds, s.Sink.alloc_words :: ws))
    spans;
  Hashtbl.fold (fun name dws acc -> (name, dws) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let add_counters buf (c : Probe.t) =
  Buffer.add_string buf "counters\n";
  List.iter
    (fun (name, get) -> Printf.bprintf buf "  %-18s %12d\n" name (get c))
    Probe.fields;
  (* open-keyed counters, e.g. the fleet's per-kind device counts *)
  List.iter
    (fun (name, v) -> Printf.bprintf buf "  %-28s %12d\n" name v)
    (Probe.named_counts c);
  let derived label = function
    | None -> ()
    | Some (p, total) ->
        Printf.bprintf buf "  %-18s %11.1f%%  (%d lookups)\n" label p total
  in
  derived "fmemo hit rate" (pct c.Probe.fmemo_hits c.Probe.fmemo_misses);
  derived "contrib hit rate" (pct c.Probe.contrib_hits c.Probe.contrib_misses);
  List.iter
    (fun (label, live, capacity, flips) ->
      Printf.bprintf buf "  fcache %-16s %6d/%d slots, %d evictions\n" label
        live capacity flips)
    (Fcache.occupancy ())

let add_phases buf spans =
  match by_phase spans with
  | [] -> ()
  | phases ->
      let grand_total =
        List.fold_left
          (fun acc (_, (ds, _)) -> acc +. List.fold_left ( +. ) 0.0 ds)
          0.0 phases
      in
      let width =
        List.fold_left
          (fun acc (name, _) -> max acc (String.length name))
          (String.length "phase") phases
      in
      Printf.bprintf buf "\n%-*s %7s %12s %10s %10s %10s %10s %10s\n" width
        "phase" "count" "total ms" "mean" "p50" "p90" "max" "kw/call";
      List.iter
        (fun (name, (ds, ws)) ->
          (* [by_phase] only lists phases with a span, so [ds] is never
             empty *)
          let total = List.fold_left ( +. ) 0.0 ds in
          let _, max_d = Stats.min_max ds in
          let share =
            if grand_total > 0.0 then total /. grand_total else 0.0
          in
          let bar =
            String.make (int_of_float (Float.round (share *. 24.0))) '#'
          in
          Printf.bprintf buf
            "%-*s %7d %12.3f %10.3f %10.3f %10.3f %10.3f %10.1f  %s\n" width
            name (List.length ds) total (Stats.mean ds) (Stats.median ds)
            (Stats.percentile 90.0 ds) max_d
            (Stats.mean ws /. 1e3) bar)
        phases

(* Histogram quantiles, when the registry is on: latency and batch-size
   distributions that the flat counters cannot express. *)
let add_histograms buf =
  match Histogram.snapshot () with
  | [] -> ()
  | hists ->
      let width =
        List.fold_left
          (fun acc (name, _) -> max acc (String.length name))
          (String.length "histogram") hists
      in
      Printf.bprintf buf "\n%-*s %9s %12s %12s %12s %12s %12s\n" width
        "histogram" "count" "p50" "p90" "p99" "max" "mean";
      List.iter
        (fun (name, h) ->
          let n = Histogram.count h in
          if n > 0 then
            Printf.bprintf buf
              "%-*s %9d %12.1f %12.1f %12.1f %12.1f %12.1f\n" width name n
              (Histogram.quantile h 50.0) (Histogram.quantile h 90.0)
              (Histogram.quantile h 99.0) (Histogram.max_value h)
              (Histogram.sum h /. float_of_int n))
        hists

let to_string sink =
  let buf = Buffer.create 1024 in
  add_counters buf (Probe.totals ());
  add_phases buf (Sink.spans sink);
  add_histograms buf;
  Buffer.contents buf
