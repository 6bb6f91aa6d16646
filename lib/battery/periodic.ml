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

  (* Each device runs until it dies or reaches the horizon, through its
     model's kernel.  The peak of sigma inside a cycle occurs at one of
     its active-interval end points (sigma relaxes during idle), so
     death within cycle k is detected by probing those ends.

     A [Model.Channels] device is compiled into tables and swept at
     once ([run_channels]).  Write e_j for the end time of the cycle's
     j-th interval and lambda_t for the channel rates.  Sigma probed at
     the end of interval j of cycle k is

       sigma(k, j) = k*Q + base_j + sum_t b_{j,t} * g_t(k)

     where Q is the full-cycle charge, base_j bundles the current
     cycle's own contribution (prefix charge plus intra-cycle channel
     terms, both independent of k), b_{j,t} is the channel-t
     contribution of one complete cycle exactly one period in the past,
     and g_t(k) = sum_{d=0}^{k-1} rho_t^d with rho_t = e^{-lambda_t *
     period} telescopes the geometric decay of all k prior cycles.  The
     accumulator update g_t <- 1 + rho_t * g_t after each survived
     cycle costs O(channels) flops and no [exp], and a probe
     O(channels) more.  Every exponent evaluated at setup is <= ~0 (the
     cycle fits in the period), so nothing can overflow.

     Only the cycle a device dies in can reach alpha, so the probes
     start at the first cycle k0 whose bound (k*Q + C) * (1 + delta)
     reaches alpha.  C is the largest base_j + sum_t b_{j,t} * G_t, G_t
     a float the accumulator can never pass, and delta covers the
     roundings of a probe's sum and of the bound itself.  Up to k0 the
     accumulators take the same update without a probe, and from k0 on
     the sweep is the one that would have run from cycle 0, so every
     outcome and fatal sigma is bit for bit the full sweep's.  A device
     whose terms could be negative or nan sweeps from cycle 0.  See
     DESIGN.md §15.

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

  (* One channel device's tables, for e intervals and t channels.  A
     [run] call compiles every channel device into the same set, grown
     to the largest, so that compiling a device allocates no array.
     [fill] stores the interval [Profile.iter_until] left in [iv] at
     index [n]. *)
  type tables = {
    mutable n : int;
    mutable ends : float array;  (* e *)
    mutable durations : float array;  (* e *)
    mutable currents : float array;  (* e *)
    mutable charges : float array;  (* e *)
    mutable base : float array;  (* e *)
    mutable w : float array;  (* e * t, interval-major *)
    mutable b : float array;  (* e * t, probe-major *)
    mutable rho : float array;  (* t *)
    mutable top : float array;  (* t: G_t *)
    mutable g : float array;  (* t *)
    mutable buf : float array;  (* t: one interval's weights *)
    iv : float array;
    fill : unit -> unit;
  }

  let tables () =
    let rec tb =
      { n = 0; ends = [||]; durations = [||]; currents = [||];
        charges = [||]; base = [||]; w = [||]; b = [||]; rho = [||];
        top = [||]; g = [||]; buf = [||]; iv = Array.make 3 0.0;
        fill =
          (fun () ->
            let i = tb.n in
            tb.ends.(i) <- tb.iv.(0) +. tb.iv.(1);
            tb.durations.(i) <- tb.iv.(1);
            tb.currents.(i) <- tb.iv.(2);
            tb.n <- i + 1) }
    in
    tb

  let grown a n =
    if Array.length a >= n then a
    else Array.make (Int.max n (2 * Array.length a)) 0.0

  let reserve tb ~e ~t =
    tb.ends <- grown tb.ends e;
    tb.durations <- grown tb.durations e;
    tb.currents <- grown tb.currents e;
    tb.charges <- grown tb.charges e;
    tb.base <- grown tb.base e;
    tb.w <- grown tb.w (e * t);
    tb.b <- grown tb.b (e * t);
    tb.rho <- grown tb.rho t;
    tb.top <- grown tb.top t;
    tb.g <- grown tb.g t;
    tb.buf <- grown tb.buf t

  (* Device [index], [dv] with kernel [dc]: compile its tables into
     [tb], find the first cycle that can kill it, and from there probe
     every interval end of cycle after cycle; on the first fatal sigma
     store the device's result.  The tables are [tb]'s, and the sweep
     is plain loops over them: it allocates no closure, option or boxed
     float of its own. *)
  let run_channels tb (dc : Model.channels) (dv : device) ~results
      ~max_cycles index =
    let e = Profile.num_intervals dv.cycle in
    let rates = dc.Model.rates in
    let t = Array.length rates in
    reserve tb ~e ~t;
    tb.n <- 0;
    Profile.iter_until dv.cycle ~at:Float.infinity tb.iv tb.fill;
    let ends = tb.ends and durations = tb.durations in
    let currents = tb.currents and charges = tb.charges in
    let base = tb.base and w = tb.w and b = tb.b and buf = tb.buf in
    let rho = tb.rho and top = tb.top and g = tb.g in
    let period = dv.period and alpha = dv.alpha in
    (* The bound holds when every term of a probe is a non-negative
       float and nothing is nan; [ok] records that it does. *)
    let ok = ref true in
    for i = 0 to e - 1 do
      let c = dc.Model.charge ~current:currents.(i) ~duration:durations.(i) in
      if not (c >= 0.0) then ok := false;
      charges.(i) <- c;
      dc.Model.weights ~current:currents.(i) ~duration:durations.(i) buf;
      for tt = 0 to t - 1 do
        if not (buf.(tt) >= 0.0) then ok := false;
        w.((i * t) + tt) <- buf.(tt)
      done
    done;
    let q = ref 0.0 in
    for i = 0 to e - 1 do
      q := !q +. charges.(i)
    done;
    let q = !q in
    if not (q < Float.infinity) then ok := false;
    let prefix = ref 0.0 in
    for j = 0 to e - 1 do
      prefix := !prefix +. charges.(j);
      let a = ref 0.0 in
      for i = 0 to j - 1 do
        (* ends.(j) - ends.(i) >= 0 for i < j: sorted, non-overlapping *)
        for tt = 0 to t - 1 do
          a :=
            !a
            +. w.((i * t) + tt)
               *. exp (-.rates.(tt) *. (ends.(j) -. ends.(i)))
        done
      done;
      (* the interval's own terms, at distance 0: exp (-. r *. 0.0) is
         exactly 1 for a finite rate r and nan otherwise *)
      for tt = 0 to t - 1 do
        a :=
          !a
          +. if Float.is_finite rates.(tt) then w.((j * t) + tt)
             else Float.nan
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
               *. exp (-.rates.(tt) *. (period +. ends.(j) -. ends.(i)))
        done;
        b.((j * t) + tt) <- !s
      done
    done;
    for tt = 0 to t - 1 do
      let r = exp (-.rates.(tt) *. period) in
      rho.(tt) <- r;
      if r >= 0.0 && r < 1.0 then begin
        (* G_t: from 0 the accumulator never passes a float that one
           update does not raise, the update being monotone in g *)
        let x = ref (1.0 /. (1.0 -. r)) and eta = ref epsilon_float in
        while (not (1.0 +. (r *. !x) <= !x)) && !eta < 1.0 do
          x := !x *. (1.0 +. !eta);
          eta := 2.0 *. !eta
        done;
        if not (1.0 +. (r *. !x) <= !x) then ok := false;
        top.(tt) <- !x
      end
      else ok := false
    done;
    let c = ref 0.0 in
    for j = 0 to e - 1 do
      let s = ref base.(j) in
      for tt = 0 to t - 1 do
        s := !s +. (b.((j * t) + tt) *. top.(tt))
      done;
      if not (!s >= 0.0) then ok := false else if !s > !c then c := !s
    done;
    let c = !c in
    let m = 1.0 +. (float_of_int ((2 * t) + 4) *. epsilon_float) in
    (* the bound is monotone in k: a division lands next to k0 *)
    let k0 =
      if not !ok then 0
      else begin
        let x = ((alpha /. m) -. c) /. q in
        let k =
          ref
            (if x >= float_of_int max_cycles then max_cycles
             else if x > 0.0 then int_of_float x
             else 0)
        in
        while !k > 0 && ((float_of_int (!k - 1) *. q) +. c) *. m >= alpha do
          decr k
        done;
        while
          !k < max_cycles
          && not (((float_of_int !k *. q) +. c) *. m >= alpha)
        do
          incr k
        done;
        !k
      end
    in
    if k0 < max_cycles then begin
      for tt = 0 to t - 1 do
        let r = rho.(tt) in
        let gt = ref 0.0 and i = ref 0 in
        while !i < k0 do
          let next = 1.0 +. (r *. !gt) in
          (* at its float fixed point every later update repeats it *)
          if next = !gt then i := k0
          else begin
            gt := next;
            incr i
          end
        done;
        g.(tt) <- !gt
      done;
      let dies = ref false in
      let k = ref k0 in
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
    end

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
    let tb = tables () in
    (* each channel device runs to its end before the next is pulled,
       so its sample and tables die young; survivors keep their
       Censored initialization *)
    for i = 0 to n - 1 do
      let (dv : device) = device i in
      check_inputs ~alpha:dv.alpha ~period:dv.period dv.cycle;
      match dv.model.Model.kernel with
      | Model.Channels dc ->
          incr nchannels;
          run_channels tb dc dv ~results ~max_cycles i
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
