(* Anytime-event stream: one JSON object per line.

   The searchers are anytime algorithms, so their interesting output is
   the quality-vs-time trajectory, not the endpoint.  Emission sites
   (annealing temperature levels, multistart trials, polish rounds,
   choose calls) are orders of magnitude rarer than evaluations, but
   they sit inside timed search loops, so [emit] must stay cheap: it
   stamps the clock outside the lock and conses the raw record inside.

   Three sinks share that protocol:

   - [create path]: each record is additionally rendered and
     flushed to [path] at emission, so an external tailer ([basched
     watch], `tail -f`) sees the stream while the run is in flight.
     Line writes happen whole under the mutex, so a reader can at worst
     observe one torn trailing line mid-[output], never an interleaved
     one.  Rendering costs ~1us per record, which the rare emission
     sites absorb.
   - [create_memory ()]: no file at all; the records exist only for
     {!snapshot}.  The run ledger uses this to extract a convergence
     curve when the caller did not ask for an events file.
   - [create_channel oc]: rendered live to a borrowed channel and not
     retained — [basched serve]'s response stream.

   Memory stays bounded by the record count: tens to a few thousand
   per run, never per-evaluation.  Like [Sink], the noop value makes
   instrumentation free when off: call sites guard with {!is_active}
   so they do not even build the field list. *)

type field = I of int | F of float | S of string | B of bool

type record = {
  seq : int;
  t_ns : int64;
  kind : string;
  fields : (string * field) list;
}

type mode =
  | Live of out_channel
  | Memory
  | Stream of out_channel
    (* live rendering to a borrowed channel, nothing retained: the
       sink for long-running daemons, where keeping every record would
       grow without bound.  The channel (typically stdout) stays open
       across [close]. *)

type state = {
  mode : mode;
  mutex : Mutex.t;
  epoch_ns : int64;
  mutable seq : int;
  mutable records : record list;  (* newest first *)
}

type t = Noop | Active of state | Tagged of state * (string * field) list

let noop = Noop

let is_active = function Noop -> false | Active _ | Tagged _ -> true

let now_ns () = Monotonic_clock.now ()

let make mode =
  Active
    { mode;
      mutex = Mutex.create ();
      epoch_ns = Monotonic_clock.now ();
      seq = 0;
      records = [] }

let create path = make (Live (open_out path))

let create_memory () = make Memory

let create_channel oc = make (Stream oc)

(* Rendering helpers.  Strings are almost always plain identifiers,
   so the escape scan avoids [Json.escape_string]'s allocation on that
   path.  Floats must survive the file roundtrip bit-exactly — the
   ledger's in-memory curve and [basched report]'s file parse of the
   same stream are compared in tests — which [Json.add_number]
   guarantees. *)
let add_json_string buf s =
  let needs_escape = ref false in
  String.iter
    (fun c -> if c = '"' || c = '\\' || Char.code c < 0x20 then
        needs_escape := true)
    s;
  if !needs_escape then Buffer.add_string buf (Json.escape_string s)
  else Buffer.add_string buf s

let add_field buf (name, v) =
  Buffer.add_char buf ',';
  Buffer.add_char buf '"';
  add_json_string buf name;
  Buffer.add_string buf "\":";
  match v with
  | I i -> Buffer.add_string buf (string_of_int i)
  | F f -> Json.add_number buf f
  | S s ->
      Buffer.add_char buf '"';
      add_json_string buf s;
      Buffer.add_char buf '"'
  | B b -> Buffer.add_string buf (if b then "true" else "false")

let render buf r =
  Buffer.add_string buf "{\"kind\":\"";
  add_json_string buf r.kind;
  Buffer.add_string buf "\",\"t_ns\":";
  Buffer.add_string buf (Int64.to_string r.t_ns);
  Buffer.add_string buf ",\"seq\":";
  Buffer.add_string buf (string_of_int r.seq);
  List.iter (add_field buf) r.fields;
  Buffer.add_char buf '}';
  Buffer.add_char buf '\n'

(* Multiple domains may emit (multistart trials run on pool workers):
   the clock read happens outside the lock; the seq stamp, the cons and
   — in live mode — the whole-line write happen inside, so the file
   order matches the seq order and lines never interleave. *)
let with_tags t tags =
  match t with
  | Noop -> Noop
  | Active st -> Tagged (st, tags)
  | Tagged (st, base) -> Tagged (st, base @ tags)

let emit_st st kind fields =
  let now = Monotonic_clock.now () in
  let t_ns = Int64.sub now st.epoch_ns in
  Mutex.lock st.mutex;
  let seq = st.seq in
  st.seq <- seq + 1;
  let r = { seq; t_ns; kind; fields } in
  (match st.mode with
  | Stream _ -> () (* unbounded daemons: render only, retain nothing *)
  | Live _ | Memory -> st.records <- r :: st.records);
  (match st.mode with
  | Live oc | Stream oc ->
      let buf = Buffer.create 128 in
      render buf r;
      Buffer.output_buffer oc buf;
      flush oc
  | Memory -> ());
  Mutex.unlock st.mutex

let emit t kind fields =
  match t with
  | Noop -> ()
  | Tagged (st, tags) -> emit_st st kind (fields @ tags)
  | Active st -> emit_st st kind fields

let snapshot = function
  | Noop -> []
  | Active st | Tagged (st, _) ->
      Mutex.lock st.mutex;
      let rs = st.records in
      Mutex.unlock st.mutex;
      List.rev rs

let close = function
  | Noop | Tagged _ -> ()
  | Active st -> (
      match st.mode with
      | Memory -> ()
      | Stream oc -> flush oc (* borrowed channel: the caller closes it *)
      | Live oc -> close_out oc)
