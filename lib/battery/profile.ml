type interval = { start : float; duration : float; current : float }

(* Struct-of-arrays representation: three unboxed float arrays indexed
   by interval, sorted by start, non-overlapping.  Hot consumers
   (sigma evaluators) walk the arrays directly via [iter_until] /
   [fold]; [intervals] materializes the record list for cold callers. *)
type t = {
  starts : float array;
  durations : float array;
  currents : float array;
}

let empty = { starts = [||]; durations = [||]; currents = [||] }

let num_intervals t = Array.length t.starts

let[@inline] check_fields start duration current =
  if not (Float.is_finite start && Float.is_finite duration && Float.is_finite current)
  then invalid_arg "Profile: non-finite interval field";
  if start < 0.0 then invalid_arg "Profile: negative start time";
  if duration < 0.0 then invalid_arg "Profile: negative duration";
  if current < 0.0 then invalid_arg "Profile: negative current"

let check_interval (start, duration, current) =
  check_fields start duration current

(* [triples] must already be sorted by start and free of zero-duration
   entries; packs without further checks. *)
let pack_sorted triples =
  let n = List.length triples in
  let starts = Array.make n 0.0 in
  let durations = Array.make n 0.0 in
  let currents = Array.make n 0.0 in
  List.iteri
    (fun i (s, d, c) ->
      starts.(i) <- s;
      durations.(i) <- d;
      currents.(i) <- c)
    triples;
  { starts; durations; currents }

let of_intervals triples =
  List.iter check_interval triples;
  let kept = List.filter (fun (_, d, _) -> d > 0.0) triples in
  let sorted = List.sort (fun (a, _, _) (b, _, _) -> compare a b) kept in
  let rec check_overlap = function
    | (s1, d1, _) :: ((s2, _, _) :: _ as rest) ->
        (* allow touching intervals; tiny tolerance for float noise *)
        if s1 +. d1 > s2 +. 1e-9 then invalid_arg "Profile: overlapping intervals"
        else check_overlap rest
    | [ _ ] | [] -> ()
  in
  check_overlap sorted;
  pack_sorted sorted

(* Every float stays in this function or in an array, so a caller in
   another module allocates only the profile itself. *)
let sequential_arrays ~currents ~durations =
  let n = Array.length currents in
  if Array.length durations <> n then
    invalid_arg "Profile.sequential_arrays: length mismatch";
  let starts = Array.create_float n in
  let kept_d = Array.create_float n in
  let kept_c = Array.create_float n in
  let kept = ref 0 in
  let clock = ref 0.0 in
  for i = 0 to n - 1 do
    let current = currents.(i) and duration = durations.(i) in
    if duration < 0.0 then invalid_arg "Profile.sequential: negative duration";
    if current < 0.0 then invalid_arg "Profile.sequential: negative current";
    check_fields !clock duration current;
    if duration > 0.0 then begin
      starts.(!kept) <- !clock;
      kept_d.(!kept) <- duration;
      kept_c.(!kept) <- current;
      incr kept
    end;
    clock := !clock +. duration
  done;
  if !kept = n then { starts; durations = kept_d; currents = kept_c }
  else
    { starts = Array.sub starts 0 !kept;
      durations = Array.sub kept_d 0 !kept;
      currents = Array.sub kept_c 0 !kept }

let sequential_fn ~n f =
  if n < 0 then invalid_arg "Profile.sequential_fn: negative count";
  let currents = Array.create_float n and durations = Array.create_float n in
  for i = 0 to n - 1 do
    let current, duration = f i in
    currents.(i) <- current;
    durations.(i) <- duration
  done;
  sequential_arrays ~currents ~durations

let sequential pairs =
  let arr = Array.of_list pairs in
  sequential_fn ~n:(Array.length arr) (fun i -> arr.(i))

let constant ~current ~duration = of_intervals [ (0.0, duration, current) ]

let with_idle t ~after ~idle =
  if idle < 0.0 then invalid_arg "Profile.with_idle: negative idle";
  { t with
    starts =
      Array.map (fun s -> if s >= after then s +. idle else s) t.starts }

let interval t i =
  { start = t.starts.(i); duration = t.durations.(i); current = t.currents.(i) }

let intervals t = List.init (num_intervals t) (interval t)

let fold t ~init ~f =
  let n = num_intervals t in
  let acc = ref init in
  for i = 0 to n - 1 do
    acc :=
      f !acc ~start:t.starts.(i) ~duration:t.durations.(i)
        ~current:t.currents.(i)
  done;
  !acc

(* The load up to [at], one interval at a time in [buf] (start,
   duration, current) rather than as float arguments, which a call
   boxes.  Sorted by start, so the walk stops at the first interval
   that starts at or after [at]; the one straddling [at] is clipped. *)
let iter_until t ~at buf f =
  let n = num_intervals t in
  let i = ref 0 in
  while !i < n && not (t.starts.(!i) >= at) do
    let s = t.starts.(!i) in
    let d = t.durations.(!i) in
    buf.(0) <- s;
    buf.(1) <- (if s +. d <= at then d else at -. s);
    buf.(2) <- t.currents.(!i);
    f ();
    incr i
  done

let length t =
  let last = ref 0.0 in
  for i = 0 to num_intervals t - 1 do
    last := Float.max !last (t.starts.(i) +. t.durations.(i))
  done;
  !last

let total_charge t =
  Batsched_numeric.Kahan.sum_fn (num_intervals t) (fun i ->
      t.currents.(i) *. t.durations.(i))

let superpose ps =
  let all = List.concat_map intervals ps in
  if all = [] then empty
  else begin
    (* breakpoints = every interval edge; between consecutive
       breakpoints the total current is constant *)
    let edges =
      List.concat_map (fun iv -> [ iv.start; iv.start +. iv.duration ]) all
      |> List.sort_uniq compare
    in
    let total_at t =
      List.fold_left
        (fun acc iv ->
          if t >= iv.start -. 1e-12 && t < iv.start +. iv.duration -. 1e-12
          then acc +. iv.current
          else acc)
        0.0 all
    in
    let rec segments = function
      | a :: (b :: _ as rest) ->
          let mid = 0.5 *. (a +. b) in
          let current = total_at mid in
          if current > 0.0 then (a, b -. a, current) :: segments rest
          else segments rest
      | [ _ ] | [] -> []
    in
    of_intervals (segments edges)
  end

let peak_current t = Array.fold_left Float.max 0.0 t.currents

let pp fmt t =
  if num_intervals t = 0 then Format.fprintf fmt "(empty profile)"
  else
    for i = 0 to num_intervals t - 1 do
      Format.fprintf fmt "[%8.2f .. %8.2f] %8.1f mA@."
        t.starts.(i)
        (t.starts.(i) +. t.durations.(i))
        t.currents.(i)
    done
