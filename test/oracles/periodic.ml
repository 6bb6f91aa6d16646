open Batsched_battery
open Periodic

(* The checks [Periodic.Batch.run] makes of every device. *)
let check_inputs ~alpha ~period cycle =
  if not (alpha > 0.0) then invalid_arg "Periodic: alpha must be positive";
  if not (period > 0.0) then invalid_arg "Periodic: period must be positive";
  if Profile.length cycle > period +. 1e-9 then
    invalid_arg "Periodic: cycle longer than the period"

(* The peak of sigma inside a cycle occurs at one of its active-interval
   end points (sigma relaxes during idle), so death within cycle k is
   detected by probing those ends against the history built so far.

   Materialize the growing full history and probe it with [sigma].
   O(cycles^2) interval work, kept verbatim from the original
   implementation of [Periodic]. *)
let reference_run ~max_cycles ~sigma ~alpha ~period cycle =
  let base =
    List.map
      (fun (iv : Profile.interval) ->
        (iv.Profile.start, iv.Profile.duration, iv.Profile.current))
      (Profile.intervals cycle)
  in
  let rec go k acc =
    if k >= max_cycles then (Censored max_cycles, Float.nan)
    else begin
      let offset = float_of_int k *. period in
      let shifted = List.map (fun (s, d, c) -> (s +. offset, d, c)) base in
      let profile = Profile.of_intervals (List.rev_append acc shifted) in
      let fatal =
        List.find_map
          (fun (s, d, _) ->
            let sg = sigma profile ~at:(s +. d) in
            if sg >= alpha then Some sg else None)
          shifted
      in
      match fatal with
      | Some sg -> (Dies k, sg)
      | None -> go (k + 1) (List.rev_append shifted acc)
    end
  in
  go 0 []

let result_reference ?(max_cycles = default_max_cycles) ~sigma
    (d : Periodic.device) =
  check_inputs ~alpha:d.alpha ~period:d.period d.cycle;
  let outcome, fatal_sigma =
    reference_run ~max_cycles ~sigma ~alpha:d.alpha ~period:d.period d.cycle
  in
  { Batch.outcome; fatal_sigma }

let cycles_to_death_reference ?(max_cycles = default_max_cycles) ~sigma
    ~alpha ~period cycle =
  check_inputs ~alpha ~period cycle;
  match reference_run ~max_cycles ~sigma ~alpha ~period cycle with
  | Dies 0, fatal_sigma -> raise (Unsustainable fatal_sigma)
  | outcome, _ -> outcome

(* The cycle's intervals as three float arrays. *)
let collect_intervals cycle =
  let n = Profile.num_intervals cycle in
  let starts = Array.make n 0.0 in
  let durations = Array.make n 0.0 in
  let currents = Array.make n 0.0 in
  let buf = Array.make 3 0.0 in
  let i = ref 0 in
  Profile.iter_until cycle ~at:Float.infinity buf (fun () ->
      starts.(!i) <- buf.(0);
      durations.(!i) <- buf.(1);
      currents.(!i) <- buf.(2);
      incr i);
  (starts, durations, currents)

(* [Periodic.Batch]'s channel sweep as it was before the sweep learnt to
   start at the first cycle that can kill the device: compile the
   device's tables, then probe every interval end of every cycle from
   cycle 0, with the shipped kernel's operations in the shipped order. *)
let run_channels (dc : Model.channels) (dv : device) ~results ~max_cycles
    index =
  let starts, durations, currents = collect_intervals dv.cycle in
  let period = dv.period and alpha = dv.alpha in
  let e = Array.length starts in
  let t = Array.length dc.Model.rates in
  let ends = Array.init e (fun j -> starts.(j) +. durations.(j)) in
  let charges =
    Array.init e (fun i ->
        dc.Model.charge ~current:currents.(i) ~duration:durations.(i))
  in
  let w = Array.make (e * t) 0.0 in
  let buf = Array.make t 0.0 in
  for i = 0 to e - 1 do
    dc.Model.weights ~current:currents.(i) ~duration:durations.(i) buf;
    Array.blit buf 0 w (i * t) t
  done;
  let q = ref 0.0 in
  for i = 0 to e - 1 do
    q := !q +. charges.(i)
  done;
  let q = !q in
  let base = Array.make e 0.0 in
  let b = Array.make (e * t) 0.0 in
  let prefix = ref 0.0 in
  for j = 0 to e - 1 do
    prefix := !prefix +. charges.(j);
    let a = ref 0.0 in
    for i = 0 to j do
      (* ends.(j) - ends.(i) >= 0 for i <= j: sorted, non-overlapping *)
      for tt = 0 to t - 1 do
        a :=
          !a
          +. w.((i * t) + tt)
             *. exp (-.dc.Model.rates.(tt) *. (ends.(j) -. ends.(i)))
      done
    done;
    base.(j) <- !prefix +. !a;
    for tt = 0 to t - 1 do
      let s = ref 0.0 in
      for i = 0 to e - 1 do
        (* period + e_j - e_i >= 0 up to the 1e-9 fit tolerance: the
           whole cycle sits within one period *)
        s :=
          !s
          +. w.((i * t) + tt)
             *. exp
                  (-.dc.Model.rates.(tt)
                  *. (period +. ends.(j) -. ends.(i)))
      done;
      b.((j * t) + tt) <- !s
    done
  done;
  let rho = Array.map (fun r -> exp (-.r *. period)) dc.Model.rates in
  let g = Array.make t 0.0 in
  let dies = ref false in
  let k = ref 0 in
  while (not !dies) && !k < max_cycles do
    let kf = float_of_int !k in
    let j = ref 0 in
    while (not !dies) && !j < e do
      let s = ref ((kf *. q) +. base.(!j)) in
      for tt = 0 to t - 1 do
        s := !s +. (b.((!j * t) + tt) *. g.(tt))
      done;
      if !s >= alpha then begin
        results.(index) <- { Batch.outcome = Dies !k; fatal_sigma = !s };
        dies := true
      end;
      incr j
    done;
    if not !dies then begin
      for tt = 0 to t - 1 do
        g.(tt) <- 1.0 +. (rho.(tt) *. g.(tt))
      done;
      incr k
    end
  done

let channel_sweep ?(max_cycles = default_max_cycles) dc (d : device) =
  check_inputs ~alpha:d.alpha ~period:d.period d.cycle;
  let results =
    [| { Batch.outcome = Censored max_cycles; fatal_sigma = Float.nan } |]
  in
  run_channels dc d ~results ~max_cycles 0;
  results.(0)
