(* Persistent append-only run registry.

   Every instrumented invocation (basched, battsim, bench) can record
   one manifest — provenance (git rev, instance hash, model, searcher,
   knobs, seed, pool size), outcome (wall time, final sigma/finish), a
   counter snapshot, and a downsampled quality-vs-time curve pulled
   from the run's event stream — as one JSON file in a ledger
   directory.  One file per run keeps appends atomic-enough (a torn
   manifest only loses itself; [load] skips it with a count) and makes
   GC a plain unlink.

   The directory defaults to [$BATSCHED_LEDGER], else
   [~/.basched/runs]; binaries only write when a ledger was requested
   (flag or env var), so tests and ad-hoc runs stay side-effect-free.

   File names are [run-<epoch-ms>-<pid>-<n>.json]: zero-padded epoch
   milliseconds make lexicographic order creation order, the pid and a
   process-local counter break same-millisecond collisions between and
   within processes.

   Schema versioning: every manifest carries [schema_version]; [load]
   keeps entries whose major version matches and counts the rest as
   skipped, so an old binary on a new ledger degrades loudly, not
   wrongly. *)

let schema_version = 1

type spec = {
  tool : string;
  label : string;
  instance : string;
  instance_hash : string;
  model : string;
  seed : int;
  pool_size : int;
  knobs : (string * string) list;
  wall_s : float;
  sigma : float option;
  finish : float option;
  events_path : string option;
  curve : (float * float * float) list;  (* t_s, evals, best sigma *)
}

type entry = {
  id : string;
  schema : int;
  created : float;
  e_tool : string;
  e_label : string;
  e_instance : string;
  e_instance_hash : string;
  e_model : string;
  e_seed : int;
  e_pool_size : int;
  git_rev : string;
  e_wall_s : float;
  e_sigma : float option;
  e_finish : float option;
  e_events_path : string option;
  e_knobs : (string * string) list;
  counters : (string * float) list;
  e_curve : (float * float * float) list;
}

let default_keep = 1000

let default_dir () =
  match Sys.getenv_opt "BATSCHED_LEDGER" with
  | Some d when d <> "" -> d
  | _ ->
      let home =
        match Sys.getenv_opt "HOME" with
        | Some h when h <> "" -> h
        | _ -> "."
      in
      Filename.concat (Filename.concat home ".basched") "runs"

let rec mkdir_p dir =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
  else begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.file_exists dir -> ()
  end

let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with Unix.Unix_error _ | Sys_error _ -> "unknown"

(* --- manifest rendering (hand-rolled, like every exporter here) --- *)

let add_str buf s =
  Buffer.add_char buf '"';
  Buffer.add_string buf (Json.escape_string s);
  Buffer.add_char buf '"'

let render_manifest ~id ~created spec counters =
  let buf = Buffer.create 2048 in
  let field ?(last = false) name render =
    Buffer.add_string buf "  \"";
    Buffer.add_string buf name;
    Buffer.add_string buf "\": ";
    render ();
    if not last then Buffer.add_char buf ',';
    Buffer.add_char buf '\n'
  in
  Buffer.add_string buf "{\n";
  field "schema_version" (fun () ->
      Buffer.add_string buf (string_of_int schema_version));
  field "id" (fun () -> add_str buf id);
  field "created" (fun () -> Json.add_number buf created);
  field "tool" (fun () -> add_str buf spec.tool);
  field "label" (fun () -> add_str buf spec.label);
  field "instance" (fun () -> add_str buf spec.instance);
  field "instance_hash" (fun () -> add_str buf spec.instance_hash);
  field "model" (fun () -> add_str buf spec.model);
  field "seed" (fun () -> Buffer.add_string buf (string_of_int spec.seed));
  field "pool_size" (fun () ->
      Buffer.add_string buf (string_of_int spec.pool_size));
  field "git_rev" (fun () -> add_str buf (git_rev ()));
  field "wall_s" (fun () -> Json.add_number buf spec.wall_s);
  field "sigma" (fun () ->
      match spec.sigma with
      | Some s -> Json.add_number buf s
      | None -> Buffer.add_string buf "null");
  field "finish" (fun () ->
      match spec.finish with
      | Some f -> Json.add_number buf f
      | None -> Buffer.add_string buf "null");
  field "events_path" (fun () ->
      match spec.events_path with
      | Some p -> add_str buf p
      | None -> Buffer.add_string buf "null");
  field "knobs" (fun () ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ", ";
          add_str buf k;
          Buffer.add_string buf ": ";
          add_str buf v)
        spec.knobs;
      Buffer.add_char buf '}');
  field "counters" (fun () ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ", ";
          add_str buf k;
          Buffer.add_string buf ": ";
          Buffer.add_string buf (string_of_int v))
        counters;
      Buffer.add_char buf '}');
  field ~last:true "curve" (fun () ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i (t, e, q) ->
          if i > 0 then Buffer.add_string buf ", ";
          Buffer.add_char buf '[';
          Json.add_number buf t;
          Buffer.add_string buf ", ";
          Json.add_number buf e;
          Buffer.add_string buf ", ";
          Json.add_number buf q;
          Buffer.add_char buf ']')
        spec.curve;
      Buffer.add_char buf ']');
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* --- writing --- *)

let counter = Atomic.make 0

let keep_limit () =
  match Sys.getenv_opt "BATSCHED_LEDGER_KEEP" with
  | Some s -> (
      match int_of_string_opt s with
      | Some k when k >= 1 -> k
      | _ -> default_keep)
  | None -> default_keep

let manifest_files dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      let names = Array.to_list names in
      List.filter
        (fun n ->
          String.length n > 9
          && String.sub n 0 4 = "run-"
          && Filename.check_suffix n ".json")
        names
      |> List.sort String.compare

(* Oldest-first deletion down to [keep] manifests.  File names embed
   the creation time, so lexicographic order is age order and GC needs
   no parsing. *)
let gc ?(keep = keep_limit ()) dir =
  let files = manifest_files dir in
  let excess = List.length files - keep in
  if excess <= 0 then 0
  else begin
    List.iteri
      (fun i n ->
        if i < excess then
          try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
      files;
    excess
  end

let record ~dir spec =
  try
    mkdir_p dir;
    let created = Unix.gettimeofday () in
    let n = Atomic.fetch_and_add counter 1 in
    let id =
      Printf.sprintf "run-%013.0f-%05d-%03d"
        (created *. 1000.0)
        (Unix.getpid () mod 100_000)
        (n mod 1000)
    in
    let counters =
      let c = Batsched_numeric.Probe.totals () in
      List.map (fun (name, get) -> (name, get c)) Batsched_numeric.Probe.fields
      @ Batsched_numeric.Probe.named_counts c
    in
    let path = Filename.concat dir (id ^ ".json") in
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc (render_manifest ~id ~created spec counters));
    ignore (gc dir);
    Ok id
  with Sys_error msg | Unix.Unix_error (_, msg, _) -> Error msg

(* --- reading --- *)

let entry_of_json j =
  let str name = Option.value ~default:"" (Json.str_field name j) in
  let num name = Json.num_field name j in
  let int_of name = Option.map int_of_float (num name) in
  match (Json.num_field "schema_version" j, Json.str_field "id" j) with
  | Some v, Some id when int_of_float v = schema_version ->
      let pairs name to_v =
        match Json.field name j with
        | Some (Json.Obj kvs) ->
            List.filter_map (fun (k, v) -> Option.map (fun v -> (k, v)) (to_v v)) kvs
        | _ -> []
      in
      let curve =
        match Json.field "curve" j with
        | Some (Json.Arr pts) ->
            List.filter_map
              (function
                | Json.Arr [ Json.Num t; Json.Num e; Json.Num q ] ->
                    Some (t, e, q)
                | _ -> None)
              pts
        | _ -> []
      in
      Some
        { id;
          schema = int_of_float v;
          created = Option.value ~default:0.0 (num "created");
          e_tool = str "tool";
          e_label = str "label";
          e_instance = str "instance";
          e_instance_hash = str "instance_hash";
          e_model = str "model";
          e_seed = Option.value ~default:0 (int_of "seed");
          e_pool_size = Option.value ~default:1 (int_of "pool_size");
          git_rev = str "git_rev";
          e_wall_s = Option.value ~default:0.0 (num "wall_s");
          e_sigma = num "sigma";
          e_finish = num "finish";
          e_events_path = Json.str_field "events_path" j;
          e_knobs = pairs "knobs" Json.to_str;
          counters = pairs "counters" Json.to_num;
          e_curve = curve }
  | _ -> None

let load dir =
  let files = manifest_files dir in
  let skipped = ref 0 in
  let entries =
    List.filter_map
      (fun n ->
        match Json.of_file (Filename.concat dir n) with
        | j -> (
            match entry_of_json j with
            | Some e -> Some e
            | None ->
                incr skipped;
                None)
        | exception (Json.Bad_json _ | Sys_error _) ->
            incr skipped;
            None)
      files
  in
  let entries =
    List.sort
      (fun a b ->
        let c = Float.compare a.created b.created in
        if c <> 0 then c else String.compare a.id b.id)
      entries
  in
  (entries, !skipped)

let find dir needle =
  let entries, _ = load dir in
  let matches prefix e =
    let n = String.length prefix in
    String.length e.id >= n && String.sub e.id 0 n = prefix
  in
  match List.find_opt (fun e -> e.id = needle) entries with
  | Some e -> Ok e
  | None -> (
      match List.filter (matches needle) entries with
      | [ e ] -> Ok e
      | [] -> Error (Printf.sprintf "no run matching %S in %s" needle dir)
      | many ->
          Error
            (Printf.sprintf "ambiguous id %S: %s" needle
               (String.concat ", " (List.map (fun e -> e.id) many))))
