open Batsched_taskgraph
open Batsched_sched
open Batsched_numeric

type dpf_result = {
  enr : float;
  cif : float;
  dpf : float;
  hypothetical : Assignment.t;
}

let eps = 1e-9

(* Per-call context: everything [CalculateDPF] needs, hoisted out of
   the O(n * m) tagging loop.  The seed implementation recomputed the
   energy order (a sort), the energy bounds and the current range — and
   rebuilt list/assignment copies — inside every one of those calls;
   here each is computed once per [choose_design_points] and every
   design-point lookup is a flat array read.

   On top of the hoisted tables sits the *incremental* trial path (see
   [begin_pos]/[trial] below and DESIGN.md §9): per tagged position the
   serial-time / energy totals and the current-increase count are
   maintained as O(1) deltas between consecutive column trials, and the
   scratch column array is patched and un-patched instead of re-blitted
   per trial; only the first trial at a position applies its upgrade
   steps in bulk and recounts the increases.
   [calculate_dpf_reference_ctx] keeps the seed's per-trial O(n)
   rescans as the oracle the property tests (and the
   [choose-n64] bench pair) compare against. *)
type ctx = {
  n : int;
  m : int;
  deadline : float;
  window_start : int;
  seq : int array;
  pos_of : int array;         (* task -> position in [seq] *)
  dur : float array array;    (* dur.(task).(col), from [Task.point] *)
  cur : float array array;
  energy : float array array; (* current *. voltage *. duration *)
  energy_order : int array;   (* increasing average energy, ties by id *)
  emin : float;
  emax : float;
  imin : float;
  imax : float;
  (* durations non-decreasing in column index for every task: the
     precondition for the incremental upgrade walk (it makes the
     feasibility predicate monotone in the step count).  Every paper
     and generated instance satisfies it; when violated the choose
     loop falls back to the reference trial path. *)
  mono_dur : bool;
  (* scratch reused across the thousands of CalculateDPF calls *)
  scratch_cols : int array;
  fixed_e : bool array;
  (* --- incremental per-position state (valid between [begin_pos] and
     the next [begin_pos]; one position in flight at a time) --- *)
  step_task : int array;      (* task upgraded at step s, s < nsteps *)
  cum_dt : float array;       (* cum_dt.(k): duration delta of steps < k *)
  cum_de : float array;       (* cum_de.(k): energy delta of steps < k *)
  acc : float array;          (* 2-cell compensated accumulator *)
  acc2 : float array;         (* second accumulator (paired sums) *)
  mutable nsteps : int;
  mutable applied : int;      (* steps currently applied to scratch_cols *)
  mutable entered : bool;     (* a trial has run since [begin_pos] *)
  mutable inc_count : int;    (* live current-increase count of scratch *)
  mutable base_te : float;    (* serial time, all tasks but the tagged *)
  mutable base_energy : float;(* energy total, all tasks but the tagged *)
  mutable tagged_pos : int;
  mutable tagged_task : int;
}

(* Compensated (Neumaier) accumulation into a 2-cell float array —
   [acc.(0)] running total, [acc.(1)] compensation.  Unlike folding
   [Kahan.add] this allocates nothing: the cells live in a preallocated
   unboxed float array and the compiler keeps the arithmetic in
   registers. *)
let[@inline] kacc_clear acc =
  acc.(0) <- 0.0;
  acc.(1) <- 0.0

let[@inline] kacc_add acc x =
  let total = acc.(0) in
  let t = total +. x in
  acc.(1) <-
    acc.(1)
    +.
    (if Float.abs total >= Float.abs x then (total -. t) +. x
     else (x -. t) +. total);
  acc.(0) <- t

let[@inline] kacc_sum acc = acc.(0) +. acc.(1)

let make_ctx (cfg : Config.t) g ~seq ~window_start =
  let n = Graph.num_tasks g in
  let m = Graph.num_points g in
  let point i j = Task.point (Graph.task g i) j in
  let table f = Array.init n (fun i -> Array.init m (fun j -> f (point i j))) in
  let emin, emax = Analysis.energy_bounds g in
  let imin, imax = Analysis.current_range g in
  let dur = table (fun p -> p.Task.duration) in
  let mono_dur =
    let ok = ref true in
    for i = 0 to n - 1 do
      for j = 1 to m - 1 do
        if dur.(i).(j) < dur.(i).(j - 1) then ok := false
      done
    done;
    !ok
  in
  let pos_of = Array.make n 0 in
  Array.iteri (fun pos t -> pos_of.(t) <- pos) seq;
  let max_steps = (n * (m - 1)) + 1 in
  { n;
    m;
    deadline = cfg.Config.deadline;
    window_start;
    seq;
    pos_of;
    dur;
    cur = table (fun p -> p.Task.current);
    energy = table (fun p -> p.Task.current *. p.Task.voltage *. p.Task.duration);
    energy_order = Array.of_list (Analysis.energy_vector g);
    emin;
    emax;
    imin;
    imax;
    mono_dur;
    scratch_cols = Array.make n 0;
    fixed_e = Array.make n false;
    step_task = Array.make max_steps 0;
    cum_dt = Array.make max_steps 0.0;
    cum_de = Array.make max_steps 0.0;
    acc = Array.make 2 0.0;
    acc2 = Array.make 2 0.0;
    nsteps = 0;
    applied = 0;
    entered = false;
    inc_count = 0;
    base_te = 0.0;
    base_energy = 0.0;
    tagged_pos = 0;
    tagged_task = 0 }

(* Metrics.current_ratio over the precomputed range. *)
let current_ratio ctx i =
  if ctx.imax -. ctx.imin <= 0.0 then 0.0
  else (i -. ctx.imin) /. (ctx.imax -. ctx.imin)

(* Metrics.energy_ratio over the precomputed bounds; the total is the
   same Kahan sum in task-id order as [Assignment.total_energy]. *)
let energy_ratio ctx cols =
  if ctx.emax -. ctx.emin <= 0.0 then 0.0
  else
    (Kahan.sum_fn ctx.n (fun i -> ctx.energy.(i).(cols.(i))) -. ctx.emin)
    /. (ctx.emax -. ctx.emin)

(* Number of adjacent current increases along the full sequence. *)
let increase_count ctx cols =
  let count = ref 0 in
  for pos = 1 to ctx.n - 1 do
    let v = ctx.seq.(pos) and u = ctx.seq.(pos - 1) in
    if ctx.cur.(v).(cols.(v)) > ctx.cur.(u).(cols.(u)) then incr count
  done;
  !count

(* Metrics.current_increase_fraction over the full sequence. *)
let increase_fraction ctx cols =
  if ctx.n <= 1 then 0.0
  else float_of_int (increase_count ctx cols) /. float_of_int (ctx.n - 1)

(* Metrics.dpf_static over the free prefix (positions < tagged_pos),
   whose task order is exactly the seed's [free] list. *)
let dpf_static ctx cols ~tagged_pos =
  if ctx.window_start < 0 || ctx.window_start >= ctx.m then
    invalid_arg "Metrics.dpf_static: window_start out of range";
  if tagged_pos = 0 || ctx.window_start = ctx.m - 1 then 0.0
  else begin
    let span = float_of_int (ctx.m - 1 - ctx.window_start) in
    let weight k =
      if k < ctx.window_start then
        invalid_arg "Metrics.dpf_static: free task assigned outside the window"
      else float_of_int (ctx.m - 1 - k) /. span
    in
    Kahan.sum_fn tagged_pos (fun pos -> weight cols.(ctx.seq.(pos)))
    /. float_of_int tagged_pos
  end

(* The paper's CalculateDPF, seed implementation: O(n) rescans per
   trial.  [ctx.scratch_cols] must hold the tagged state on entry (free
   prefix at lowest power, tagged task at its trial column, suffix
   committed); it is mutated into the hypothetical completion.  Kept
   verbatim as the oracle for the incremental path below.  Returns
   (enr, cif, dpf). *)
let calculate_dpf_reference_ctx ctx ~tagged_pos =
  let d = ctx.deadline in
  let cols = ctx.scratch_cols in
  let fixed_e = ctx.fixed_e in
  let probe = Probe.local () in
  Array.fill fixed_e 0 ctx.n true;
  for pos = 0 to tagged_pos - 1 do
    fixed_e.(ctx.seq.(pos)) <- false
  done;
  let te = ref (Kahan.sum_fn ctx.n (fun i -> ctx.dur.(i).(cols.(i)))) in
  let finish infeasible =
    let enr = energy_ratio ctx cols in
    let cif = increase_fraction ctx cols in
    let dpf =
      if infeasible then Float.infinity
      else if tagged_pos = 0 then Metrics.slack_ratio ~deadline:d ~time:!te
      else dpf_static ctx cols ~tagged_pos
    in
    (enr, cif, dpf)
  in
  (* First upgradable free task in increasing-average-energy order.
     Tasks only ever get fixed, and columns only ever decrease, so the
     first free candidate moves monotonically through [energy_order] —
     the pointer [k] replaces the seed's scan-from-scratch without
     changing which task each round picks. *)
  let k = ref 0 in
  let rec candidate () =
    if !k >= ctx.n then None
    else begin
      let q = ctx.energy_order.(!k) in
      if fixed_e.(q) then begin incr k; candidate () end
      else if cols.(q) <= ctx.window_start then begin
        (* already at the fastest allowed column: cannot upgrade *)
        fixed_e.(q) <- true;
        incr k;
        candidate ()
      end
      else Some q
    end
  in
  let rec upgrade () =
    if !te <= d +. eps then finish false
    else
      match candidate () with
      | None -> finish true
      | Some q ->
          probe.Probe.dpf_steps <- probe.Probe.dpf_steps + 1;
          let col = cols.(q) in
          let col' = col - 1 in
          te := !te -. ctx.dur.(q).(col) +. ctx.dur.(q).(col');
          cols.(q) <- col';
          if col' = ctx.window_start then fixed_e.(q) <- true;
          upgrade ()
  in
  upgrade ()

(* --- incremental CalculateDPF ---

   For a fixed tagged position the trial loop sweeps the tagged task's
   column; everything else about the hypothetical state is a function
   of *how many* upgrade steps the deadline forces.  The upgrade
   schedule itself — which free task moves, from which column — is
   fixed by the energy order and does not depend on the trial column,
   so [begin_pos] materializes it once (with compensated prefix sums of
   its duration/energy deltas) and [trial] sets the applied-step count
   to the smallest feasible value.  The first trial at a position finds
   that count with one scan of the prefix sums, applies the steps as
   plain column decrements and recounts the current increases once,
   O(n); later trials move the tagged column (one O(1) patch) and slide
   the count, keeping the increase count exact under each
   single-column patch.  Total time and energy read off the prefix
   sums; the DPF numerator *is* the applied-step count, because every
   step raises one free task's slowdown weight by exactly 1/span.

   The column sweep visits slower-to-faster trial columns, so with
   monotone durations the required step count only ever decreases
   within a position: the slide is amortized O(1) per trial. *)

(* Patch one task's column in the live scratch state, keeping the
   current-increase count of the sequence exact.  Only the two pairs
   adjacent to the task's position can change. *)
let[@inline] cur_at ctx p =
  let v = ctx.seq.(p) in
  ctx.cur.(v).(ctx.scratch_cols.(v))

let set_col ctx v c =
  let p = ctx.pos_of.(v) in
  if p > 0 && cur_at ctx p > cur_at ctx (p - 1) then
    ctx.inc_count <- ctx.inc_count - 1;
  if p < ctx.n - 1 && cur_at ctx (p + 1) > cur_at ctx p then
    ctx.inc_count <- ctx.inc_count - 1;
  ctx.scratch_cols.(v) <- c;
  if p > 0 && cur_at ctx p > cur_at ctx (p - 1) then
    ctx.inc_count <- ctx.inc_count + 1;
  if p < ctx.n - 1 && cur_at ctx (p + 1) > cur_at ctx p then
    ctx.inc_count <- ctx.inc_count + 1

(* Stage the tagged position: blit the committed columns once (the
   only O(n) copy this position will make), compute the base aggregates
   excluding the tagged task, and materialize the upgrade schedule.
   The current-increase count is left to the position's first [trial],
   which recounts it after its bulk upgrade.  [cols] must hold the
   committed suffix, with every free task and the tagged task parked at
   the lowest-power column. *)
let begin_pos ctx ~cols ~pos =
  let n = ctx.n in
  let t = ctx.seq.(pos) in
  ctx.tagged_pos <- pos;
  ctx.tagged_task <- t;
  Array.blit cols 0 ctx.scratch_cols 0 n;
  let te = ctx.acc and en = ctx.acc2 in
  kacc_clear te;
  kacc_clear en;
  for i = 0 to n - 1 do
    if i <> t then begin
      let c = ctx.scratch_cols.(i) in
      kacc_add te ctx.dur.(i).(c);
      kacc_add en ctx.energy.(i).(c)
    end
  done;
  ctx.base_te <- kacc_sum te;
  ctx.base_energy <- kacc_sum en;
  (* upgrade schedule: free tasks in increasing-average-energy order,
     each from the lowest-power column down to the window edge — the
     exact visit order of the reference upgrade loop, flattened *)
  let dt = ctx.acc and de = ctx.acc2 in
  kacc_clear dt;
  kacc_clear de;
  ctx.cum_dt.(0) <- 0.0;
  ctx.cum_de.(0) <- 0.0;
  let s = ref 0 in
  for k = 0 to n - 1 do
    let q = ctx.energy_order.(k) in
    if ctx.pos_of.(q) < pos then
      for c = ctx.m - 1 downto ctx.window_start + 1 do
        ctx.step_task.(!s) <- q;
        kacc_add dt (ctx.dur.(q).(c - 1) -. ctx.dur.(q).(c));
        kacc_add de (ctx.energy.(q).(c - 1) -. ctx.energy.(q).(c));
        incr s;
        ctx.cum_dt.(!s) <- kacc_sum dt;
        ctx.cum_de.(!s) <- kacc_sum de
      done
  done;
  ctx.nsteps <- !s;
  ctx.applied <- 0;
  ctx.entered <- false

(* Evaluate the tagged task at column [j] against the staged position.
   Returns (enr, cif, dpf) for the hypothetical completion.

   The first trial after [begin_pos] enters the position in bulk: it
   scans [cum_dt] for the first feasible step count k, applying steps
   0..k-1 as plain decrements on the way, and recounts the increases
   once, O(n).  This is exactly the state the one-step walk up from 0
   reaches: the walk stops at the same first feasible k, applies the
   same decrements, and its exactly maintained integer count equals the
   recount.
   [dpf_steps] grows by the same k.  Later trials cost O(1) plus the
   (amortized O(1)) slide of the applied-step count. *)
let trial ctx ~j =
  let t = ctx.tagged_task in
  let te_entry = ctx.base_te +. ctx.dur.(t).(j) in
  let d = ctx.deadline in
  let feasible k = te_entry +. ctx.cum_dt.(k) <= d +. eps in
  let probe = Probe.local () in
  if not ctx.entered then begin
    ctx.entered <- true;
    ctx.scratch_cols.(t) <- j;
    let k = ref 0 in
    while !k < ctx.nsteps && not (feasible !k) do
      let q = ctx.step_task.(!k) in
      ctx.scratch_cols.(q) <- ctx.scratch_cols.(q) - 1;
      incr k
    done;
    probe.Probe.dpf_steps <- probe.Probe.dpf_steps + !k;
    ctx.applied <- !k;
    ctx.inc_count <- increase_count ctx ctx.scratch_cols
  end
  else begin
    if ctx.scratch_cols.(t) <> j then set_col ctx t j;
    while ctx.applied > 0 && feasible (ctx.applied - 1) do
      let s = ctx.applied - 1 in
      let q = ctx.step_task.(s) in
      set_col ctx q (ctx.scratch_cols.(q) + 1);
      ctx.applied <- s
    done;
    while ctx.applied < ctx.nsteps && not (feasible ctx.applied) do
      let q = ctx.step_task.(ctx.applied) in
      probe.Probe.dpf_steps <- probe.Probe.dpf_steps + 1;
      set_col ctx q (ctx.scratch_cols.(q) - 1);
      ctx.applied <- ctx.applied + 1
    done
  end;
  let infeasible = not (feasible ctx.applied) in
  let enr =
    if ctx.emax -. ctx.emin <= 0.0 then 0.0
    else
      (ctx.base_energy +. ctx.energy.(t).(j) +. ctx.cum_de.(ctx.applied)
      -. ctx.emin)
      /. (ctx.emax -. ctx.emin)
  in
  let cif =
    if ctx.n <= 1 then 0.0
    else float_of_int ctx.inc_count /. float_of_int (ctx.n - 1)
  in
  let dpf =
    if infeasible then Float.infinity
    else if ctx.tagged_pos = 0 then
      Metrics.slack_ratio ~deadline:d
        ~time:(te_entry +. ctx.cum_dt.(ctx.applied))
    else if ctx.window_start = ctx.m - 1 then 0.0
    else
      float_of_int ctx.applied
      /. float_of_int (ctx.m - 1 - ctx.window_start)
      /. float_of_int ctx.tagged_pos
  in
  (enr, cif, dpf)

let mk_result ctx (enr, cif, dpf) g =
  { enr;
    cif;
    dpf;
    hypothetical = Assignment.of_list g (Array.to_list ctx.scratch_cols) }

(* Boundary checks shared by both entry points; returns the
   assignment's columns in task-id order. *)
let dpf_columns fn g ~sequence ~assignment ~tagged_pos ~window_start =
  let n = Graph.num_tasks g and m = Graph.num_points g in
  let fail reason = invalid_arg (Printf.sprintf "Choose.%s: %s" fn reason) in
  let seen = Array.make n false in
  let first_sight v =
    let ok = v >= 0 && v < n && not seen.(v) in
    if ok then seen.(v) <- true;
    ok
  in
  if Array.length sequence <> n || not (Array.for_all first_sight sequence)
  then fail "sequence is not a permutation of the task ids";
  let cols = Array.of_list (Assignment.to_list assignment) in
  if Array.length cols <> n || Array.exists (fun c -> c >= m) cols then
    fail "assignment does not cover the graph's tasks";
  if tagged_pos < 0 || tagged_pos >= n then fail "tagged_pos out of range";
  if window_start < 0 || window_start >= m then
    fail "window_start out of range";
  cols

let calculate_dpf_reference (cfg : Config.t) g ~sequence ~assignment
    ~tagged_pos ~window_start =
  let cols =
    dpf_columns "calculate_dpf_reference" g ~sequence ~assignment ~tagged_pos
      ~window_start
  in
  let ctx = make_ctx cfg g ~seq:sequence ~window_start in
  Array.blit cols 0 ctx.scratch_cols 0 ctx.n;
  mk_result ctx (calculate_dpf_reference_ctx ctx ~tagged_pos) g

let calculate_dpf (cfg : Config.t) g ~sequence ~assignment ~tagged_pos
    ~window_start =
  let cols =
    dpf_columns "calculate_dpf" g ~sequence ~assignment ~tagged_pos
      ~window_start
  in
  let ctx = make_ctx cfg g ~seq:sequence ~window_start in
  let parked_free =
    let ok = ref true in
    for pos = 0 to tagged_pos - 1 do
      if cols.(ctx.seq.(pos)) <> ctx.m - 1 then ok := false
    done;
    !ok
  in
  if ctx.mono_dur && parked_free then begin
    (* [begin_pos] expects the tagged task parked at lowest power;
       the first [trial] then sets the actual tagged column. *)
    let t = ctx.seq.(tagged_pos) in
    let j = cols.(t) in
    cols.(t) <- ctx.m - 1;
    begin_pos ctx ~cols ~pos:tagged_pos;
    mk_result ctx (trial ctx ~j) g
  end
  else begin
    Array.blit cols 0 ctx.scratch_cols 0 ctx.n;
    mk_result ctx (calculate_dpf_reference_ctx ctx ~tagged_pos) g
  end

let suitability (cfg : Config.t) ~sr ~cr ~enr ~cif ~dpf =
  if dpf = Float.infinity then Float.infinity
  else begin
    let w = cfg.Config.weights in
    (w.Config.sr *. sr) +. (w.Config.cr *. cr)
    +. (w.Config.enr *. enr)
    +. (w.Config.cif *. cif)
    +. (w.Config.dpf *. dpf)
  end

let choose_impl ~incremental (cfg : Config.t) g ~sequence ~window_start =
  let m = Graph.num_points g in
  if window_start < 0 || window_start >= m then
    invalid_arg "Choose.choose_design_points: window out of range";
  if not (Analysis.is_topological g sequence) then
    invalid_arg "Choose.choose_design_points: invalid sequence";
  Batsched_obs.Sink.with_span cfg.Config.obs "choose" @@ fun () ->
  let probe = Probe.local () in
  probe.Probe.choose_calls <- probe.Probe.choose_calls + 1;
  (* convergence record per call: attribute the upgrade-loop work
     (dpf_steps delta) to this window *)
  let dpf0 =
    if Batsched_obs.Events.is_active cfg.Config.events then
      probe.Probe.dpf_steps
    else 0
  in
  Fun.protect ~finally:(fun () ->
      if Batsched_obs.Events.is_active cfg.Config.events then
        Batsched_obs.Events.emit cfg.Config.events "choose"
          [ ("window_start", Batsched_obs.Events.I window_start);
            ("dpf_steps", Batsched_obs.Events.I (probe.Probe.dpf_steps - dpf0))
          ])
  @@ fun () ->
  let seq = Array.of_list sequence in
  let ctx = make_ctx cfg g ~seq ~window_start in
  let n = ctx.n in
  let d = cfg.Config.deadline in
  let lowest = m - 1 in
  (* The incremental walk needs monotone durations; fall back to the
     reference trials (still hoisted-context) on exotic instances. *)
  let use_incremental = incremental && ctx.mono_dur in
  (* Committed columns of the fixed suffix; free tasks read as lowest
     power, which is also their hypothetical parking column. *)
  let cols = Array.make n lowest in
  (* The paper fixes the last task at the lowest-power column outright
     ("S(n,m) = 1"), which can bust a tight deadline before selection
     even starts.  We take the slowest column that leaves the rest of
     the sequence feasible at the window's fastest column — identical
     to the paper whenever its own examples apply (see DESIGN.md). *)
  let last = seq.(n - 1) in
  let rest_fastest =
    Kahan.sum_fn (n - 1) (fun pos -> ctx.dur.(seq.(pos)).(window_start))
  in
  let last_col =
    let rec pick j =
      if j <= window_start then window_start
      else if ctx.dur.(last).(j) +. rest_fastest <= d +. 1e-9 then j
      else pick (j - 1)
    in
    pick lowest
  in
  if ctx.dur.(last).(last_col) +. rest_fastest > d +. 1e-9 then
    raise Config.Deadline_unmeetable;
  cols.(last) <- last_col;
  let tsum = ref ctx.dur.(last).(last_col) in
  for pos = n - 2 downto 0 do
    let t = seq.(pos) in
    let best = ref None in
    if use_incremental then begin_pos ctx ~cols ~pos;
    for j = lowest downto window_start do
      let ttemp = !tsum +. ctx.dur.(t).(j) in
      let sr = Metrics.slack_ratio ~deadline:d ~time:ttemp in
      let cr = current_ratio ctx ctx.cur.(t).(j) in
      let enr, cif, dpf =
        if use_incremental then trial ctx ~j
        else begin
          Array.blit cols 0 ctx.scratch_cols 0 n;
          ctx.scratch_cols.(t) <- j;
          calculate_dpf_reference_ctx ctx ~tagged_pos:pos
        end
      in
      let b = suitability cfg ~sr ~cr ~enr ~cif ~dpf in
      match !best with
      | Some (_, best_b) when best_b <= b -> ()
      | _ -> if b < Float.infinity then best := Some (j, b)
    done;
    match !best with
    | None -> raise Config.Deadline_unmeetable
    | Some (col, _) ->
        cols.(t) <- col;
        tsum := !tsum +. ctx.dur.(t).(col)
  done;
  Assignment.of_list g (Array.to_list cols)

let choose_design_points cfg g ~sequence ~window_start =
  choose_impl ~incremental:true cfg g ~sequence ~window_start

let choose_design_points_reference cfg g ~sequence ~window_start =
  choose_impl ~incremental:false cfg g ~sequence ~window_start
