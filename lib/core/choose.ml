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
   the O(n * m) tagging loop.  The graph-only tables are built once per
   graph ([graph_tables] below), the rest once per
   [choose_design_points], and every design-point lookup is a read of a
   flat [n * m] table.

   On top of the hoisted tables sits the incremental trial path (see
   [enter]/[trial]/[advance] below and DESIGN.md §9): one hypothetical
   completion is carried across every tagged position of a call.  Each
   column change patches the serial time, the energy and the
   current-increase count in O(1), and each trial only moves the
   upgrade boundary as far as the deadline demands.  The seed's
   per-trial rescans live on as the test oracle
   [Batsched_oracles.Choose]. *)
type ctx = {
  n : int;
  m : int;
  deadline : float;
  span : int;                 (* m - 1 - window_start: steps per free task *)
  seq : int array;
  pos_of : int array;         (* task -> position in [seq] *)
  dur : float array;          (* dur.(task * m + col), from [Task.point] *)
  cur : float array;
  energy : float array;       (* current *. voltage *. duration *)
  energy_order : int array;   (* rank -> task: increasing average energy,
                                 ties by id *)
  rank_of : int array;        (* task -> rank *)
  emin : float;
  emax : float;
  imin : float;
  imax : float;
  cols : int array;           (* the evaluated state, one column per task *)
  res : float array;          (* [| enr; cif; dpf |] of the last evaluation *)
  (* --- carried hypothetical state (incremental path) ---
     Free tasks sit in a doubly linked list in energy order: node r + 1
     holds rank r, node 0 and node n + 1 are the sentinels, and node
     order is rank order.  Free tasks before the boundary node are at
     the window edge, those after it at the lowest-power column, and the
     boundary task has [part] of its [span] steps applied. *)
  sums : float array;         (* Neumaier pairs: serial time (0, 1) and
                                 energy (2, 3) of [cols] *)
  trial_sum : float array;    (* scratch pair for a tentative time *)
  next : int array;
  prev : int array;
  mutable bnd : int;          (* boundary node; n + 1 once every free
                                 task is at the edge *)
  mutable part : int;
  mutable applied : int;      (* upgrade steps applied: the DPF numerator *)
  mutable inc_count : int;    (* current increases along [seq] in [cols] *)
  mutable entered : bool;     (* a trial has run at this tagged position *)
  mutable tagged_pos : int;
  mutable tagged_task : int;
}

(* Neumaier's compensated sum over the pair of cells [s.(i)] (running
   total) and [s.(i + 1)] (compensation): the formula of [Kahan.add],
   kept in a preallocated unboxed float array so that it allocates
   nothing and the arithmetic stays in registers. *)
let[@inline] kadd s i x =
  let total = s.(i) in
  let t = total +. x in
  s.(i + 1) <-
    s.(i + 1)
    +.
    (if Float.abs total >= Float.abs x then (total -. t) +. x
     else (x -. t) +. total);
  s.(i) <- t

let[@inline] ksum s i = s.(i) +. s.(i + 1)

(* Replace the term [old_v] of the running sum at [i] by [new_v].  An
   unchanged term leaves the pair untouched, so two columns whose terms
   tie exactly still tie exactly after the patch. *)
let[@inline] kswap s i (old_v : float) new_v =
  if old_v <> new_v then begin
    kadd s i (-.old_v);
    kadd s i new_v
  end

(* [Kahan.sum_fn len (fun k -> a.(first + k * stride))], bit for bit,
   over the pair [s.(0)], [s.(1)]. *)
let kahan_strided s a ~first ~stride ~len =
  s.(0) <- 0.0;
  s.(1) <- 0.0;
  for k = 0 to len - 1 do
    kadd s 0 a.(first + (k * stride))
  done;
  ksum s 0

(* What a call reads of the graph alone: the n * m tables, the energy
   and current bounds and the energy order.  A solve makes 4-12 calls
   on one graph, so these are built once per graph ([graph_tables]),
   not once per call; above 256 words each n * m table would otherwise
   land fresh in the major heap on every call. *)
type tables = {
  t_dur : float array;
  t_cur : float array;
  t_energy : float array;
  t_energy_order : int array;
  t_rank_of : int array;
  t_emin : float;
  t_emax : float;
  t_imin : float;
  t_imax : float;
}

let build_tables g =
  let n = Graph.num_tasks g in
  let m = Graph.num_points g in
  let dur = Array.make (n * m) 0.0 in
  let cur = Array.make (n * m) 0.0 in
  let energy = Array.make (n * m) 0.0 in
  let imin = ref Float.infinity and imax = ref Float.neg_infinity in
  for i = 0 to n - 1 do
    let points = (Graph.task g i).Task.points in
    for j = 0 to m - 1 do
      let p = points.(j) in
      dur.((i * m) + j) <- p.Task.duration;
      cur.((i * m) + j) <- p.Task.current;
      energy.((i * m) + j) <-
        p.Task.current *. p.Task.voltage *. p.Task.duration
    done;
    (* Analysis.current_range: slowest and fastest currents *)
    imin := Float.min !imin cur.((i * m) + m - 1);
    imax := Float.max !imax cur.(i * m)
  done;
  (* Analysis.energy_bounds and Task.average_energy: the same Kahan sums
     in the same order.  The energy order sorts by (average, id), the
     paper's energy vector, without boxing a tuple per task. *)
  let sums = Array.make 2 0.0 in
  let emin = kahan_strided sums energy ~first:(m - 1) ~stride:m ~len:n in
  let emax = kahan_strided sums energy ~first:0 ~stride:m ~len:n in
  let avg = Array.make n 0.0 in
  for i = 0 to n - 1 do
    avg.(i) <-
      kahan_strided sums energy ~first:(i * m) ~stride:1 ~len:m
      /. float_of_int m
  done;
  let energy_order = Array.init n Fun.id in
  Array.stable_sort
    (fun a b ->
      let c = Float.compare avg.(a) avg.(b) in
      if c <> 0 then c else Int.compare a b)
    energy_order;
  let rank_of = Array.make n 0 in
  Array.iteri (fun r t -> rank_of.(t) <- r) energy_order;
  { t_dur = dur;
    t_cur = cur;
    t_energy = energy;
    t_energy_order = energy_order;
    t_rank_of = rank_of;
    t_emin = emin;
    t_emax = emax;
    t_imin = !imin;
    t_imax = !imax }

(* The tables of the last graph this domain chose on.  A graph is
   immutable, so physical equality identifies it; calls on another
   graph rebuild.  Domain-local, like the memo tables, so a pool
   fan-out needs no lock and each domain builds at most once per
   graph. *)
let last_tables : (Graph.t * tables) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let graph_tables g =
  let last = Domain.DLS.get last_tables in
  match !last with
  | Some (g', tab) when g' == g -> tab
  | _ ->
      let tab = build_tables g in
      last := Some (g, tab);
      tab

let make_ctx (cfg : Config.t) g ~seq ~window_start =
  let n = Graph.num_tasks g in
  let m = Graph.num_points g in
  let tab = graph_tables g in
  let pos_of = Array.make n 0 in
  Array.iteri (fun pos t -> pos_of.(t) <- pos) seq;
  { n;
    m;
    deadline = cfg.Config.deadline;
    span = m - 1 - window_start;
    seq;
    pos_of;
    dur = tab.t_dur;
    cur = tab.t_cur;
    energy = tab.t_energy;
    energy_order = tab.t_energy_order;
    rank_of = tab.t_rank_of;
    emin = tab.t_emin;
    emax = tab.t_emax;
    imin = tab.t_imin;
    imax = tab.t_imax;
    cols = Array.make n 0;
    res = Array.make 3 0.0;
    sums = Array.make 4 0.0;
    trial_sum = Array.make 2 0.0;
    next = Array.make (n + 2) 0;
    prev = Array.make (n + 2) 0;
    bnd = n + 1;
    part = 0;
    applied = 0;
    inc_count = 0;
    entered = false;
    tagged_pos = 0;
    tagged_task = 0 }

let[@inline] dur_at ctx i j = ctx.dur.((i * ctx.m) + j)

(* Metrics.slack_ratio, bit for bit, without the cross-module call that
   boxes its argument and its result on every trial.  Its guard is moot
   here: [Config.make] rejects a deadline <= 0, and every column misses
   such a deadline, so the choose loop raises [Deadline_unmeetable]
   before its first trial. *)
let[@inline] slack_ratio ctx time = (ctx.deadline -. time) /. ctx.deadline

(* Metrics.current_ratio over the precomputed range. *)
let[@inline] current_ratio ctx i =
  if ctx.imax -. ctx.imin <= 0.0 then 0.0
  else (i -. ctx.imin) /. (ctx.imax -. ctx.imin)

let[@inline] cur_at ctx p =
  let v = ctx.seq.(p) in
  ctx.cur.((v * ctx.m) + ctx.cols.(v))

(* Number of adjacent current increases along the full sequence. *)
let increase_count ctx =
  let count = ref 0 in
  for pos = 1 to ctx.n - 1 do
    if cur_at ctx pos > cur_at ctx (pos - 1) then incr count
  done;
  !count

(* --- incremental CalculateDPF ---

   Everything about the hypothetical completion is a function of *how
   many* upgrade steps the deadline forces: the steps run through the
   free tasks in energy order, each from the lowest-power column down
   to the window edge.  So one call carries a single state across all
   its tagged positions: [enter] builds it once, O(n); each [trial]
   moves the tagged column and walks the boundary to the smallest
   feasible step count; [advance] commits the tagged task and tags the
   next one, O(1).  The serial time and the energy are compensated
   running sums, the current-increase count is exact under every
   column patch, and the DPF numerator *is* the applied-step count,
   because every step raises one free task's slowdown weight by exactly
   1/span. *)

(* Move one task's column in the carried state, patching the serial
   time, the energy and the current-increase count.  Only the two
   pairs adjacent to the task's position can change their increase. *)
let set_col ctx v c =
  let old = ctx.cols.(v) in
  if c <> old then begin
    let p = ctx.pos_of.(v) in
    if p > 0 && cur_at ctx p > cur_at ctx (p - 1) then
      ctx.inc_count <- ctx.inc_count - 1;
    if p < ctx.n - 1 && cur_at ctx (p + 1) > cur_at ctx p then
      ctx.inc_count <- ctx.inc_count - 1;
    ctx.cols.(v) <- c;
    if p > 0 && cur_at ctx p > cur_at ctx (p - 1) then
      ctx.inc_count <- ctx.inc_count + 1;
    if p < ctx.n - 1 && cur_at ctx (p + 1) > cur_at ctx p then
      ctx.inc_count <- ctx.inc_count + 1;
    let base = v * ctx.m in
    kswap ctx.sums 0 ctx.dur.(base + old) ctx.dur.(base + c);
    kswap ctx.sums 2 ctx.energy.(base + old) ctx.energy.(base + c)
  end

let[@inline] meets_deadline ctx time = time <= ctx.deadline +. eps

(* Apply the next upgrade step: the boundary task moves one column
   faster, and the boundary passes it once it reaches the edge. *)
let step_up ctx =
  let q = ctx.energy_order.(ctx.bnd - 1) in
  set_col ctx q (ctx.cols.(q) - 1);
  ctx.applied <- ctx.applied + 1;
  ctx.part <- ctx.part + 1;
  if ctx.part = ctx.span then begin
    ctx.bnd <- ctx.next.(ctx.bnd);
    ctx.part <- 0
  end

(* The node of the task the last applied step moved ([applied > 0]). *)
let[@inline] last_step_node ctx =
  if ctx.part = 0 then ctx.prev.(ctx.bnd) else ctx.bnd

(* Undo the last applied step. *)
let step_down ctx =
  let node = last_step_node ctx in
  if node <> ctx.bnd then begin
    ctx.bnd <- node;
    ctx.part <- ctx.span
  end;
  let q = ctx.energy_order.(node - 1) in
  set_col ctx q (ctx.cols.(q) + 1);
  ctx.applied <- ctx.applied - 1;
  ctx.part <- ctx.part - 1

(* Whether the state would still meet the deadline with its last step
   undone.  The tentative time runs the very additions [step_down]
   would, on a copy of the pair, so the test and the state it admits
   agree bit for bit. *)
let undo_meets_deadline ctx =
  let q = ctx.energy_order.(last_step_node ctx - 1) in
  let i = (q * ctx.m) + ctx.cols.(q) in
  let s = ctx.trial_sum in
  s.(0) <- ctx.sums.(0);
  s.(1) <- ctx.sums.(1);
  kswap s 0 ctx.dur.(i) ctx.dur.(i + 1);
  meets_deadline ctx (ksum s 0)

(* Enter tagged position [pos] from scratch, O(n): [ctx.cols] must hold
   the committed suffix, with the tagged task and every free task parked
   at the lowest-power column.  Used for a call's first position and by
   the public [calculate_dpf]. *)
let enter ctx ~pos =
  let n = ctx.n and m = ctx.m in
  let s = ctx.sums in
  Array.fill s 0 4 0.0;
  for i = 0 to n - 1 do
    let c = (i * m) + ctx.cols.(i) in
    kadd s 0 ctx.dur.(c);
    kadd s 2 ctx.energy.(c)
  done;
  ctx.inc_count <- increase_count ctx;
  let last = ref 0 in
  for r = 0 to n - 1 do
    if ctx.pos_of.(ctx.energy_order.(r)) < pos then begin
      ctx.next.(!last) <- r + 1;
      ctx.prev.(r + 1) <- !last;
      last := r + 1
    end
  done;
  ctx.next.(!last) <- n + 1;
  ctx.prev.(n + 1) <- !last;
  ctx.bnd <- (if ctx.span = 0 then n + 1 else ctx.next.(0));
  ctx.part <- 0;
  ctx.applied <- 0;
  ctx.entered <- false;
  ctx.tagged_pos <- pos;
  ctx.tagged_task <- ctx.seq.(pos)

(* Commit the tagged task at [col] and tag the task one position
   earlier, O(1): unlink it from the free list, dropping whatever steps
   it carried, and park it at the lowest-power column. *)
let advance ctx ~col =
  set_col ctx ctx.tagged_task col;
  let pos = ctx.tagged_pos - 1 in
  let q = ctx.seq.(pos) in
  let node = ctx.rank_of.(q) + 1 in
  if node < ctx.bnd then ctx.applied <- ctx.applied - ctx.span
  else if node = ctx.bnd then begin
    ctx.applied <- ctx.applied - ctx.part;
    ctx.bnd <- ctx.next.(node);
    ctx.part <- 0
  end;
  ctx.next.(ctx.prev.(node)) <- ctx.next.(node);
  ctx.prev.(ctx.next.(node)) <- ctx.prev.(node);
  set_col ctx q (ctx.m - 1);
  ctx.entered <- false;
  ctx.tagged_pos <- pos;
  ctx.tagged_task <- q

(* Evaluate the tagged task at column [j] against the carried state and
   write (enr, cif, dpf) to [ctx.res].

   The applied-step count walks down while one step fewer still meets
   the deadline, then up while it does not.  With monotone durations
   feasibility is monotone in the count, so the walk stops at the
   smallest feasible count, the one the seed evaluation's walk up from
   zero finds, whatever count it starts from.  The first trial at a
   position adds that count to [dpf_steps], as the seed evaluation
   does; later trials add one per step up. *)
let trial ctx probe ~j =
  set_col ctx ctx.tagged_task j;
  while ctx.applied > 0 && undo_meets_deadline ctx do
    step_down ctx
  done;
  let ups = ref 0 in
  while ctx.bnd <= ctx.n && not (meets_deadline ctx (ksum ctx.sums 0)) do
    step_up ctx;
    incr ups
  done;
  probe.Probe.dpf_steps <-
    probe.Probe.dpf_steps + (if ctx.entered then !ups else ctx.applied);
  ctx.entered <- true;
  let time = ksum ctx.sums 0 in
  let res = ctx.res in
  res.(0) <-
    (if ctx.emax -. ctx.emin <= 0.0 then 0.0
     else (ksum ctx.sums 2 -. ctx.emin) /. (ctx.emax -. ctx.emin));
  res.(1) <-
    (if ctx.n <= 1 then 0.0
     else float_of_int ctx.inc_count /. float_of_int (ctx.n - 1));
  res.(2) <-
    (if not (meets_deadline ctx time) then Float.infinity
     else if ctx.tagged_pos = 0 then slack_ratio ctx time
     else if ctx.span = 0 then 0.0
     else
       float_of_int ctx.applied /. float_of_int ctx.span
       /. float_of_int ctx.tagged_pos)

let calculate_dpf (cfg : Config.t) g ~sequence ~assignment ~tagged_pos
    ~window_start =
  let n = Graph.num_tasks g and m = Graph.num_points g in
  let fail reason = invalid_arg ("Choose.calculate_dpf: " ^ reason) in
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
  for pos = 0 to tagged_pos - 1 do
    if cols.(sequence.(pos)) <> m - 1 then
      fail "free task not at the lowest-power column"
  done;
  let ctx = make_ctx cfg g ~seq:sequence ~window_start in
  (* [enter] expects the tagged task parked at lowest power; the trial
     then sets the actual tagged column. *)
  let t = sequence.(tagged_pos) in
  let j = cols.(t) in
  cols.(t) <- m - 1;
  Array.blit cols 0 ctx.cols 0 n;
  enter ctx ~pos:tagged_pos;
  trial ctx (Probe.local ()) ~j;
  { enr = ctx.res.(0);
    cif = ctx.res.(1);
    dpf = ctx.res.(2);
    hypothetical = Assignment.of_list g (Array.to_list ctx.cols) }

let[@inline] suitability (cfg : Config.t) ~sr ~cr ~enr ~cif ~dpf =
  if dpf = Float.infinity then Float.infinity
  else begin
    let w = cfg.Config.weights in
    (w.Config.sr *. sr) +. (w.Config.cr *. cr)
    +. (w.Config.enr *. enr)
    +. (w.Config.cif *. cif)
    +. (w.Config.dpf *. dpf)
  end

let choose_design_points (cfg : Config.t) g ~sequence ~window_start =
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
  (* Committed columns of the fixed suffix; free tasks read as lowest
     power, which is also their hypothetical parking column. *)
  let committed = Array.make n lowest in
  (* The paper fixes the last task at the lowest-power column outright
     ("S(n,m) = 1"), which can bust a tight deadline before selection
     even starts.  We take the slowest column that leaves the rest of
     the sequence feasible at the window's fastest column — identical
     to the paper whenever its own examples apply (see DESIGN.md). *)
  let last = seq.(n - 1) in
  let rest_fastest =
    (* [Kahan.sum_fn (n - 1)] over the window-edge durations, bit for
       bit, on a scratch pair: a closure would box every term *)
    let s = ctx.trial_sum in
    s.(0) <- 0.0;
    s.(1) <- 0.0;
    for pos = 0 to n - 2 do
      kadd s 0 (dur_at ctx seq.(pos) window_start)
    done;
    ksum s 0
  in
  let last_col =
    let rec pick j =
      if j <= window_start then window_start
      else if dur_at ctx last j +. rest_fastest <= d +. 1e-9 then j
      else pick (j - 1)
    in
    pick lowest
  in
  if dur_at ctx last last_col +. rest_fastest > d +. 1e-9 then
    raise Config.Deadline_unmeetable;
  committed.(last) <- last_col;
  if n > 1 then begin
    Array.blit committed 0 ctx.cols 0 n;
    enter ctx ~pos:(n - 2)
  end;
  let tsum = ref (dur_at ctx last last_col) in
  for pos = n - 2 downto 0 do
    let t = seq.(pos) in
    let best_col = ref (-1) and best_b = ref Float.infinity in
    for j = lowest downto window_start do
      let ttemp = !tsum +. dur_at ctx t j in
      let sr = slack_ratio ctx ttemp in
      let cr = current_ratio ctx ctx.cur.((t * m) + j) in
      trial ctx probe ~j;
      let b =
        suitability cfg ~sr ~cr ~enr:ctx.res.(0) ~cif:ctx.res.(1)
          ~dpf:ctx.res.(2)
      in
      (* ties keep the lower-power column, visited first *)
      if b < !best_b then begin
        best_b := b;
        best_col := j
      end
    done;
    let col = !best_col in
    if col < 0 then raise Config.Deadline_unmeetable;
    committed.(t) <- col;
    tsum := !tsum +. dur_at ctx t col;
    if pos > 0 then advance ctx ~col
  done;
  Assignment.of_list g (Array.to_list committed)
