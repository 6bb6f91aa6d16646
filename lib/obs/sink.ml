type span = {
  track : int;
  name : string;
  start_ns : int64;
  dur_ns : int64;
  alloc_words : float;
}

type state = {
  mutex : Mutex.t;
  epoch_ns : int64;
  mutable spans : span list;
}

type t = Noop | Active of state

let noop = Noop

let create () =
  Active
    { mutex = Mutex.create (); epoch_ns = Monotonic_clock.now (); spans = [] }

(* A span goes straight to the sink it was recorded on, under its
   mutex, tagged with the recording domain's pool slot. *)
let with_span t name f =
  match t with
  | Noop -> f ()
  | Active st ->
      let w0 = Gc.minor_words () in
      let t0 = Monotonic_clock.now () in
      Fun.protect
        ~finally:(fun () ->
          let t1 = Monotonic_clock.now () in
          let w1 = Gc.minor_words () in
          let dur_ns = Int64.sub t1 t0 in
          let s =
            { track = Batsched_numeric.Pool.worker_index (); name;
              start_ns = t0; dur_ns; alloc_words = w1 -. w0 }
          in
          Mutex.lock st.mutex;
          st.spans <- s :: st.spans;
          Mutex.unlock st.mutex;
          if !Batsched_numeric.Histogram.observing then
            Batsched_numeric.Histogram.observe ("span/" ^ name)
              (Int64.to_float dur_ns))
        f

let compare_span (a : span) (b : span) =
  let c = Int.compare a.track b.track in
  if c <> 0 then c
  else
    let c = Int64.compare a.start_ns b.start_ns in
    if c <> 0 then c
    else
      (* longer first, so an enclosing span precedes the children it
         shares a start timestamp with *)
      let c = Int64.compare b.dur_ns a.dur_ns in
      if c <> 0 then c else String.compare a.name b.name

let spans t =
  match t with
  | Noop -> []
  | Active st ->
      Mutex.lock st.mutex;
      let spans = st.spans in
      Mutex.unlock st.mutex;
      List.sort compare_span spans

let epoch_ns = function Noop -> 0L | Active st -> st.epoch_ns
