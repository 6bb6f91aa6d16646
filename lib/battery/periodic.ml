open Batsched_numeric

exception Unsustainable of float

type outcome = Dies of int | Censored of int

let cycles = function Dies n -> n | Censored n -> n

let default_max_cycles = 500

let check_inputs ~alpha ~period cycle =
  if not (alpha > 0.0) then invalid_arg "Periodic: alpha must be positive";
  if not (period > 0.0) then invalid_arg "Periodic: period must be positive";
  if Profile.length cycle > period +. 1e-9 then
    invalid_arg "Periodic: cycle longer than the period"

type device = {
  model : Model.t;
  alpha : float;
  period : float;
  cycle : Profile.t;
}

module Batch = struct
  type result = { outcome : outcome; fatal_sigma : float }

  (* Each device runs from cycle 0 until it dies or reaches the
     horizon, through its model's kernel.  The peak of sigma inside a
     cycle occurs at one of its active-interval end points (sigma
     relaxes during idle), so death within cycle k is detected by
     probing those ends.

     A [Model.Channels] device is compiled into local tables and swept
     at once ([run_channels]).  Write e_j for the end time of the
     cycle's j-th interval and lambda_t for the channel rates.  Sigma
     probed at the end of interval j of cycle k is

       sigma(k, j) = k*Q + base_j + sum_t b_{j,t} * g_t(k)

     where Q is the full-cycle charge, base_j bundles the current
     cycle's own contribution (prefix charge plus intra-cycle channel
     terms, both independent of k), b_{j,t} is the channel-t
     contribution of one complete cycle exactly one period in the past,
     and g_t(k) = sum_{d=0}^{k-1} rho_t^d with rho_t = e^{-lambda_t *
     period} telescopes the geometric decay of all k prior cycles.  The
     accumulator update g_t <- 1 + rho_t * g_t after each survived
     cycle is the whole per-cycle cost: O(probes * channels) flops and
     zero [exp]s.  Every exponent evaluated at setup is <= ~0 (the
     cycle fits in the period), so nothing can overflow.

     A [Model.Stepper] device is [carried] and runs once every device
     has been pulled: it advances one state through the mission
     instead of re-integrating the whole history per probe —
     O(cycles) integration work total instead of O(cycles^2).  The
     arithmetic deliberately mirrors the test oracle's full-history
     probe ([run_to] targets computed as [start +. offset] and spans as
     differences against the carried clock), because the oracle's
     from-scratch integration for any probe performs exactly a prefix
     of the carried span sequence: the two paths are bit-identical,
     not just close.  Carried devices of one [state_dim] run four at a
     time through a [Model.lane_group], and a device alone through a
     group of one (see [run_lanes]), each lane playing the same
     mission events with the same arithmetic. *)
  type carried = {
    index : int;  (* the device's, in the run *)
    alpha : float;
    period : float;
    stepper : Model.stepper;
    starts : float array;
    durations : float array;
    currents : float array;
  }

  (* The cycle's intervals as three float arrays.  [iter_until] hands
     each one over in [buf], not as boxed float arguments. *)
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

  (* Device [index], [dv] with kernel [dc]: compile its tables, then
     probe every interval end of cycle after cycle, and on the first
     fatal sigma store the device's result.  The tables are locals, and
     the sweep is plain loops over them: it allocates no closure, option
     or boxed float of its own. *)
  let run_channels (dc : Model.channels) (dv : device) ~results
      ~max_cycles index =
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
          results.(index) <- { outcome = Dies !k; fatal_sigma = !s };
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

  (* The lane scheduler: runs carried devices [queue] (of one
     state_dim) through the lane group [g], from their first cycle
     until each dies or reaches the horizon.

     A lane plays its device's mission events with the oracle's
     arithmetic: rest up to an interval's start, run the interval,
     probe its end.  When an event needs integration the lane starts
     that span and holds its step count in [left]; every round runs all
     lanes for the fewest steps any busy lane has left, so the lanes
     whose span ends then move on to their next span.  A lane whose
     device dies or reaches the horizon takes the queue's next device,
     and the last busy lane finishes its device in the group.  [feed]
     calls itself in tail position only, so a run of events that need
     no integration takes constant stack.  The per-lane state lives in
     int and float arrays and floats reach the group through its
     arrays, so a round allocates nothing. *)
  let run_lanes (g : Model.lane_group) queue ~results ~max_cycles =
    let w = g.Model.width in
    let dev = Array.make w (-1) in  (* [queue] entry in each lane, or -1 *)
    let cyc = Array.make w 0 and iv = Array.make w 0 in
    let phase = Array.make w 0 in  (* 0 rest, 1 run, 2 probe *)
    let left = Array.make w 0 in  (* steps left in the span; 0 if idle *)
    let clock = Array.make w 0.0 in
    let next = ref 0 in
    let rec feed l =
      if dev.(l) < 0 then begin
        if !next < Array.length queue then begin
          let c = queue.(!next) in
          (* an empty cycle never dies: such a device stays censored *)
          if Array.length c.starts > 0 then begin
            dev.(l) <- !next;
            cyc.(l) <- 0;
            iv.(l) <- 0;
            phase.(l) <- 0;
            clock.(l) <- 0.0;
            g.Model.load l c.stepper.Model.params
          end;
          incr next;
          feed l
        end
      end
      else begin
        let c = queue.(dev.(l)) in
        let k = cyc.(l) and j = iv.(l) in
        match phase.(l) with
        | 0 ->
            let s_abs = c.starts.(j) +. (float_of_int k *. c.period) in
            phase.(l) <- 1;
            if s_abs > clock.(l) then begin
              g.Model.current.(l) <- 0.0;
              g.Model.duration.(l) <- s_abs -. clock.(l);
              left.(l) <- g.Model.span l;
              clock.(l) <- s_abs
            end
            else feed l
        | 1 ->
            let s_abs = c.starts.(j) +. (float_of_int k *. c.period) in
            let e_abs = s_abs +. c.durations.(j) in
            phase.(l) <- 2;
            if e_abs > clock.(l) then begin
              g.Model.current.(l) <- c.currents.(j);
              g.Model.duration.(l) <- e_abs -. clock.(l);
              left.(l) <- g.Model.span l;
              clock.(l) <- e_abs
            end
            else feed l
        | _ ->
            g.Model.observe l;
            let sg = g.Model.sigma.(l) in
            phase.(l) <- 0;
            if sg >= c.alpha then begin
              results.(c.index) <- { outcome = Dies k; fatal_sigma = sg };
              dev.(l) <- -1;
              feed l
            end
            else if j + 1 < Array.length c.starts then begin
              iv.(l) <- j + 1;
              feed l
            end
            else begin
              iv.(l) <- 0;
              cyc.(l) <- k + 1;
              if k + 1 >= max_cycles then dev.(l) <- -1;
              feed l
            end
      end
    in
    let busy = ref 0 in
    for l = 0 to w - 1 do
      feed l;
      if left.(l) > 0 then incr busy
    done;
    while !busy > 0 do
      let m = ref max_int in
      for l = 0 to w - 1 do
        if left.(l) > 0 && left.(l) < !m then m := left.(l)
      done;
      g.Model.run !m;
      busy := 0;
      for l = 0 to w - 1 do
        if left.(l) > 0 then begin
          left.(l) <- left.(l) - !m;
          if left.(l) = 0 then feed l;
          if left.(l) > 0 then incr busy
        end
      done
    done

  let dim c = c.stepper.Model.state_dim

  (* Carried devices run through lane groups, grouped by state_dim in
     device order: four at a time, or in a group of one lane for a
     device alone. *)
  let run_carried carried ~results ~max_cycles =
    Array.stable_sort (fun a b -> Int.compare (dim a) (dim b)) carried;
    let a = ref 0 in
    while !a < Array.length carried do
      let b = ref (!a + 1) in
      while !b < Array.length carried && dim carried.(!b) = dim carried.(!a)
      do
        incr b
      done;
      run_lanes
        (carried.(!a).stepper.Model.group (if !b - !a >= 2 then 4 else 1))
        (Array.sub carried !a (!b - !a))
        ~results ~max_cycles;
      a := !b
    done

  let run ?(max_cycles = default_max_cycles) ~n ~device () =
    if n < 0 then invalid_arg "Periodic.Batch.run: negative device count";
    let results =
      Array.make n { outcome = Censored max_cycles; fatal_sigma = Float.nan }
    in
    let nchannels = ref 0 in
    let carried = ref [] in
    (* each channel device runs to its end before the next is pulled,
       so its sample and tables die young; survivors keep their
       Censored initialization *)
    for i = 0 to n - 1 do
      let (dv : device) = device i in
      check_inputs ~alpha:dv.alpha ~period:dv.period dv.cycle;
      match dv.model.Model.kernel with
      | Model.Channels dc ->
          incr nchannels;
          run_channels dc dv ~results ~max_cycles i
      | Model.Stepper stepper ->
          let starts, durations, currents = collect_intervals dv.cycle in
          carried :=
            { index = i; alpha = dv.alpha; period = dv.period; stepper;
              starts; durations; currents }
            :: !carried
    done;
    (* one bump per kind and call: [bump_named] rebuilds the whole
       counter list *)
    let probe = Probe.local () in
    let ncarried = List.length !carried in
    if !nchannels > 0 then
      Probe.bump_named probe "periodic/channel_devices" !nchannels;
    if ncarried > 0 then
      Probe.bump_named probe "periodic/carried_devices" ncarried;
    if ncarried > 0 && max_cycles > 0 then
      run_carried
        (Array.of_list (List.rev !carried))
        ~results ~max_cycles;
    results
end

let cycles_to_death ?max_cycles ~model ~alpha ~period cycle =
  let r =
    (Batch.run ?max_cycles ~n:1
       ~device:(fun _ -> { model; alpha; period; cycle })
       ()).(0)
  in
  match r.Batch.outcome with
  | Dies 0 -> raise (Unsustainable r.Batch.fatal_sigma)
  | outcome -> outcome
