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

(* The peak of sigma inside a cycle occurs at one of its active-interval
   end points (sigma relaxes during idle), so death within cycle k is
   detected by probing those ends against the history built so far. *)

(* Reference path: materialize the growing full history and probe it
   with the model's own [sigma].  O(cycles^2) interval work, kept
   verbatim from the original implementation as the fallback for models
   exposing neither [decay] nor [stepper].  Stripping both fields from a
   model routes it here, which is how the property tests reach it as
   the oracle for the fast kernels. *)
let reference_run ~max_cycles ~model ~alpha ~period cycle =
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
            let sg = model.Model.sigma profile ~at:(s +. d) in
            if sg >= alpha then Some sg else None)
          shifted
      in
      match fatal with
      | Some sg -> (Dies k, sg)
      | None -> go (k + 1) (List.rev_append shifted acc)
    end
  in
  go 0 []

module Batch = struct
  type result = { outcome : outcome; fatal_sigma : float }

  (* Per-device endurance state, compiled once at setup so the per-cycle
     sweep does constant work per device.

     [Channels] is the closed form for models with a [Model.decay]
     decomposition.  Write e_j for the end time of the cycle's j-th
     interval and lambda_t for the channel rates.  Sigma probed at the
     end of interval j of cycle k is

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

     [Carried] advances a [Model.stepper] state through the mission
     once instead of re-integrating the whole history per probe —
     O(cycles) integration work total instead of O(cycles^2).  The
     arithmetic deliberately mirrors the reference probe ([run_to]
     targets computed as [start +. offset] and spans as differences
     against the carried clock), because the reference's from-scratch
     integration for any probe performs exactly a prefix of the carried
     advance sequence: the two paths are bit-identical, not just
     close. *)
  type channels_state = {
    nprobe : int;
    nterm : int;
    q : float;
    base : float array;  (* nprobe *)
    b : float array;     (* nprobe * nterm, row-major by probe *)
    rho : float array;   (* nterm *)
    g : float array;     (* nterm; mutable geometric accumulator *)
  }

  type carried_state = {
    ops : Model.stepper_ops;
    u : float array;
    starts : float array;
    durations : float array;
    currents : float array;
    clock : float array;  (* one slot, so moving the clock boxes nothing *)
  }

  type compiled =
    | Channels of channels_state
    | Carried of carried_state
    | Resolved  (* outcome computed at setup via the reference path *)

  let collect_intervals cycle =
    let n = Profile.num_intervals cycle in
    let starts = Array.make n 0.0 in
    let durations = Array.make n 0.0 in
    let currents = Array.make n 0.0 in
    let i = ref 0 in
    Profile.fold cycle ~init:() ~f:(fun () ~start ~duration ~current ->
        starts.(!i) <- start;
        durations.(!i) <- duration;
        currents.(!i) <- current;
        incr i);
    (starts, durations, currents)

  let compile_channels (dc : Model.decay) ~period ~starts ~durations ~currents
      =
    let e = Array.length starts in
    let t = Array.length dc.Model.rates in
    let ends = Array.init e (fun j -> starts.(j) +. durations.(j)) in
    let charges =
      Array.init e (fun i ->
          dc.Model.charge ~current:currents.(i) ~duration:durations.(i))
    in
    let w = Array.make (Stdlib.max 1 (e * t)) 0.0 in
    let buf = Array.make (Stdlib.max 1 t) 0.0 in
    for i = 0 to e - 1 do
      dc.Model.weights ~current:currents.(i) ~duration:durations.(i) buf;
      Array.blit buf 0 w (i * t) t
    done;
    let q = ref 0.0 in
    Array.iter (fun c -> q := !q +. c) charges;
    let base = Array.make (Stdlib.max 1 e) 0.0 in
    let b = Array.make (Stdlib.max 1 (e * t)) 0.0 in
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
    Channels
      { nprobe = e;
        nterm = t;
        q = !q;
        base;
        b;
        rho;
        g = Array.make (Stdlib.max 1 t) 0.0 }

  (* One cycle of device [i]: probe every interval end, and on the
     first fatal sigma store it in [fatal.(i)] and return [true];
     advance the state only on survival (a dead device is never stepped
     again, so leaving its state mid-cycle is fine).  Plain loops over
     the run's float arrays: the per-cycle sweep allocates no closure,
     option or boxed float of its own. *)
  let step_channels d ~alphas ~fatal ~k i =
    let kf = float_of_int k in
    let dies = ref false in
    let j = ref 0 in
    while (not !dies) && !j < d.nprobe do
      let s = ref ((kf *. d.q) +. d.base.(!j)) in
      for tt = 0 to d.nterm - 1 do
        s := !s +. (d.b.((!j * d.nterm) + tt) *. d.g.(tt))
      done;
      if !s >= alphas.(i) then begin
        fatal.(i) <- !s;
        dies := true
      end;
      incr j
    done;
    if not !dies then
      for tt = 0 to d.nterm - 1 do
        d.g.(tt) <- 1.0 +. (d.rho.(tt) *. d.g.(tt))
      done;
    !dies

  let step_carried c ~alphas ~periods ~fatal ~k i =
    let offset = float_of_int k *. periods.(i) in
    let clock = c.clock in
    let dies = ref false in
    let j = ref 0 in
    while (not !dies) && !j < Array.length c.starts do
      (* rest up to the interval's start, then run it *)
      let s_abs = c.starts.(!j) +. offset in
      if s_abs > clock.(0) then begin
        c.ops.Model.advance c.u ~current:0.0 ~duration:(s_abs -. clock.(0));
        clock.(0) <- s_abs
      end;
      let e_abs = s_abs +. c.durations.(!j) in
      if e_abs > clock.(0) then begin
        c.ops.Model.advance c.u ~current:c.currents.(!j)
          ~duration:(e_abs -. clock.(0));
        clock.(0) <- e_abs
      end;
      let sg = c.ops.Model.observe c.u in
      if sg >= alphas.(i) then begin
        fatal.(i) <- sg;
        dies := true
      end;
      incr j
    done;
    !dies

  let run ?(max_cycles = default_max_cycles) ~n ~device () =
    if n < 0 then invalid_arg "Periodic.Batch.run: negative device count";
    let results =
      Array.make n { outcome = Censored max_cycles; fatal_sigma = Float.nan }
    in
    if n = 0 then results
    else begin
      let probe = Probe.local () in
      let compiled = Array.make n Resolved in
      let alphas = Array.make n 0.0 in
      let periods = Array.make n 0.0 in
      let fatal = Array.make n Float.nan in
      let alive = Array.make n 0 in
      let nalive = ref 0 in
      for i = 0 to n - 1 do
        let dv = device i in
        check_inputs ~alpha:dv.alpha ~period:dv.period dv.cycle;
        alphas.(i) <- dv.alpha;
        periods.(i) <- dv.period;
        match (dv.model.Model.decay, dv.model.Model.stepper) with
        | Some dc, _ ->
            let starts, durations, currents = collect_intervals dv.cycle in
            compiled.(i) <-
              compile_channels dc ~period:dv.period ~starts ~durations
                ~currents;
            alive.(!nalive) <- i;
            incr nalive;
            Probe.bump_named probe "periodic/channel_devices" 1
        | None, Some sp ->
            let ops = sp.Model.fresh () in
            let u = Array.make sp.Model.state_dim 0.0 in
            ops.Model.start u;
            let starts, durations, currents = collect_intervals dv.cycle in
            compiled.(i) <-
              Carried
                { ops; u; starts; durations; currents;
                  clock = Array.make 1 0.0 };
            alive.(!nalive) <- i;
            incr nalive;
            Probe.bump_named probe "periodic/carried_devices" 1
        | None, None ->
            let outcome, fatal_sigma =
              reference_run ~max_cycles ~model:dv.model ~alpha:dv.alpha
                ~period:dv.period dv.cycle
            in
            results.(i) <- { outcome; fatal_sigma };
            Probe.bump_named probe "periodic/reference_devices" 1
      done;
      (* One sweep per cycle over the still-alive devices, compacting
         the index array in place as devices die, so total work is
         sum over devices of (cycles lived), not n * max_cycles.  The
         sweep allocates only when a device dies (its result record):
         the step functions read alpha and period from the float arrays
         above and write a fatal sigma into [fatal], so nothing is
         boxed per cycle, and a carried stepper's own cost is the few
         floats boxed across the [Model.stepper_ops] closures. *)
      let k = ref 0 in
      while !nalive > 0 && !k < max_cycles do
        let kept = ref 0 in
        for a = 0 to !nalive - 1 do
          let i = alive.(a) in
          let dies =
            match compiled.(i) with
            | Channels d -> step_channels d ~alphas ~fatal ~k:!k i
            | Carried c -> step_carried c ~alphas ~periods ~fatal ~k:!k i
            | Resolved -> false (* never enters the alive set *)
          in
          if dies then
            results.(i) <- { outcome = Dies !k; fatal_sigma = fatal.(i) }
          else begin
            alive.(!kept) <- i;
            incr kept
          end
        done;
        nalive := !kept;
        incr k
      done;
      (* survivors keep their Censored initialization *)
      results
    end
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
