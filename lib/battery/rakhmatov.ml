open Batsched_numeric

let default_beta = 0.273

(* The series divides by beta^2 m^2 and evaluates e^(-beta^2 m^2 t) at
   t = 0.  Within [1e-150, 1e150] every such denominator is a normal
   finite double for m up to 10^4 (beta^2 m^2 <= 1e308); outside, one
   underflows to 0 or overflows to inf, and x / 0 or inf * 0 makes
   sigma nan. *)
let valid_beta beta = beta >= 1e-150 && beta <= 1e150

(* dt r as the PDE's span prologue computes it for a span of one full
   step, r = D / dx^2 with D = beta^2 / pi^2; a shorter step has a
   smaller dt r.  The comparison is false for nan. *)
let valid_pde_grid ~beta ~nodes ~dt =
  let dx = 1.0 /. float_of_int (nodes - 1) in
  let dee = beta *. beta /. (Float.pi *. Float.pi) in
  dt *. (dee /. (dx *. dx)) < 0x1p53

(* The kernel comes from [Series]' memoized exponential-sum tails,
   and whole per-interval contributions are memoized in {e suffix-time
   coordinates}: the RV contribution of an interval depends only on its
   current [I], its duration [D] and the time [tail] between its end
   and the observation instant — not on where in absolute time it
   sits.  Keying the memo on
   [(beta, terms, I, D, tail)] instead of the former
   [(start, duration, current, at)] therefore lets candidate schedules
   of {e different total length} share entries: a local-search move that
   shifts the makespan leaves every suffix-aligned interval's key — and
   cached value — intact, where the old absolute-time key missed on all
   of them.  The memo is a domain-local [Fcache]: the five-float key is
   hashed on its raw words (no tuple allocation, no polymorphic hashing
   per lookup) and entries expire half a table at a time. *)
let contribution_cache : Fcache.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Fcache.create ~label:"rv-contrib" ~arity:5 ())

(* The contribution of the interval with current [buf.(j)], duration
   [buf.(j + 1)] and tail [buf.(j + 2)], written to [buf.(j)] (the two
   cells after it are clobbered).  Floats travel through [buf] and the
   memo's own key buffer, never as arguments or results of another
   module's functions, which would box them: a lookup allocates
   nothing, hit or miss. *)
let contribution_at ~terms ~beta buf j =
  let tbl = Domain.DLS.get contribution_cache in
  let current = buf.(j) and duration = buf.(j + 1) and tail = buf.(j + 2) in
  let key = Fcache.key tbl in
  key.(0) <- beta;
  key.(1) <- float_of_int terms;
  key.(2) <- current;
  key.(3) <- duration;
  key.(4) <- tail;
  let probe = Probe.local () in
  if Fcache.find_into tbl buf j then
    probe.Probe.contrib_hits <- probe.Probe.contrib_hits + 1
  else begin
    probe.Probe.contrib_misses <- probe.Probe.contrib_misses + 1;
    buf.(j + 1) <- tail;
    buf.(j + 2) <- tail +. duration;
    Series.kernel_at ~terms ~beta buf (j + 1);
    buf.(j) <- current *. (duration +. buf.(j + 1));
    Fcache.add_from tbl buf j
  end

(* The suffix-time decomposition is the model's one kernel:
   [Model.sigma] folds its terms with tail = max 0 (at - start - D),
   and the delta evaluator keeps, at the makespan of a gapless profile,
   the sum of durations after each interval as its tail.  Its channel
   view: the contribution
     I (D + F(tail) - F(tail + D))
   with F(t) = sum_m 2 e^{-lambda_m t} / lambda_m, lambda_m = beta^2 m^2,
   regroups as
     I D + sum_m (2 / lambda_m) I (1 - e^{-lambda_m D}) e^{-lambda_m tail}
   — one decay channel per truncated series term, amplitudes depending
   on (I, D) only.  Exactly the structure {!Periodic} telescopes across
   repeated cycles. *)
let channels ~terms ~beta =
  let b2 = beta *. beta in
  let rates =
    Array.init terms (fun i ->
        let m = float_of_int (i + 1) in
        b2 *. m *. m)
  in
  { Model.term = contribution_at ~terms ~beta;
    rates;
    weights =
      (fun ~current ~duration buf ->
        for t = 0 to terms - 1 do
          buf.(t) <-
            2.0 /. rates.(t) *. current *. (1.0 -. exp (-.rates.(t) *. duration))
        done);
    charge = (fun ~current ~duration -> current *. duration) }

let model ?(terms = Series.default_terms) ?(beta = default_beta) () =
  { Model.name = "rakhmatov"; kernel = Model.Channels (channels ~terms ~beta) }
