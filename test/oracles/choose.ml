open Batsched_taskgraph
open Batsched_sched
open Batsched_numeric

let eps = 1e-9

let energy_vector g =
  let keyed =
    List.map (fun t -> (Task.average_energy t, t.Task.id)) (Graph.tasks g)
  in
  List.map snd (List.sort compare keyed)

let duration g v j = (Task.point (Graph.task g v) j).Task.duration

(* One trial of the seed's CalculateDPF.  [cols] holds the tagged state
   (free prefix at lowest power, tagged task at its trial column,
   suffix committed) and is turned into the hypothetical completion;
   [order] is the energy vector, built once per call by the caller. *)
let trial (cfg : Batsched.Config.t) g ~order ~seq ~cols ~tagged_pos
    ~window_start =
  let n = Array.length seq in
  let d = cfg.Batsched.Config.deadline in
  let probe = Probe.local () in
  let free = Array.make n false in
  for pos = 0 to tagged_pos - 1 do
    free.(seq.(pos)) <- true
  done;
  let te = ref (Kahan.sum_fn n (fun v -> duration g v cols.(v))) in
  (* Upgrade the first free task in energy order that is not yet at the
     window edge, one column per step, until the deadline holds. *)
  let rec upgrade = function
    | _ when !te <= d +. eps -> false
    | [] -> true
    | q :: _ as order when free.(q) && cols.(q) > window_start ->
        probe.Probe.dpf_steps <- probe.Probe.dpf_steps + 1;
        let col = cols.(q) in
        te := !te -. duration g q col +. duration g q (col - 1);
        cols.(q) <- col - 1;
        upgrade order
    | _ :: rest -> upgrade rest
  in
  let infeasible = upgrade order in
  let hypothetical = Assignment.of_list g (Array.to_list cols) in
  { Batsched.Choose.enr = Factors.energy_ratio g hypothetical;
    cif =
      Factors.current_increase_fraction g hypothetical (Array.to_list seq);
    dpf =
      (if infeasible then Float.infinity
       else if tagged_pos = 0 then Factors.slack_ratio ~deadline:d ~time:!te
       else
         Metrics.dpf_static g hypothetical
           ~free:(List.init tagged_pos (fun pos -> seq.(pos)))
           ~window_start);
    hypothetical }

let calculate_dpf cfg g ~sequence ~assignment ~tagged_pos ~window_start =
  trial cfg g ~order:(energy_vector g) ~seq:sequence
    ~cols:(Array.of_list (Assignment.to_list assignment))
    ~tagged_pos ~window_start

let choose_design_points (cfg : Batsched.Config.t) g ~sequence ~window_start =
  let m = Graph.num_points g in
  if window_start < 0 || window_start >= m then
    invalid_arg "Choose.choose_design_points: window out of range";
  if not (Analysis.is_topological g sequence) then
    invalid_arg "Choose.choose_design_points: invalid sequence";
  let probe = Probe.local () in
  probe.Probe.choose_calls <- probe.Probe.choose_calls + 1;
  let d = cfg.Batsched.Config.deadline in
  let w = cfg.Batsched.Config.weights in
  let seq = Array.of_list sequence in
  let n = Array.length seq in
  let order = energy_vector g in
  let lowest = m - 1 in
  let committed = Array.make n lowest in
  (* The last task takes the slowest column that leaves the rest of the
     sequence feasible at the window's fastest column. *)
  let last = seq.(n - 1) in
  let rest_fastest =
    Kahan.sum_fn (n - 1) (fun pos -> duration g seq.(pos) window_start)
  in
  let rec pick j =
    if j <= window_start then window_start
    else if duration g last j +. rest_fastest <= d +. eps then j
    else pick (j - 1)
  in
  let last_col = pick lowest in
  if duration g last last_col +. rest_fastest > d +. eps then
    raise Batsched.Config.Deadline_unmeetable;
  committed.(last) <- last_col;
  let tsum = ref (duration g last last_col) in
  for pos = n - 2 downto 0 do
    let t = seq.(pos) in
    let best_col = ref (-1) and best_b = ref Float.infinity in
    for j = lowest downto window_start do
      let sr = Factors.slack_ratio ~deadline:d ~time:(!tsum +. duration g t j) in
      let cr = Factors.current_ratio g (Task.point (Graph.task g t) j).Task.current in
      let cols = Array.copy committed in
      cols.(t) <- j;
      let r = trial cfg g ~order ~seq ~cols ~tagged_pos:pos ~window_start in
      let b =
        if r.Batsched.Choose.dpf = Float.infinity then Float.infinity
        else
          Factors.suitability ~sr:(w.Batsched.Config.sr *. sr)
            ~cr:(w.Batsched.Config.cr *. cr)
            ~enr:(w.Batsched.Config.enr *. r.Batsched.Choose.enr)
            ~cif:(w.Batsched.Config.cif *. r.Batsched.Choose.cif)
            ~dpf:(w.Batsched.Config.dpf *. r.Batsched.Choose.dpf)
      in
      (* ties keep the lower-power column, visited first *)
      if b < !best_b then begin
        best_b := b;
        best_col := j
      end
    done;
    if !best_col < 0 then raise Batsched.Config.Deadline_unmeetable;
    committed.(t) <- !best_col;
    tsum := !tsum +. duration g t !best_col
  done;
  Assignment.of_list g (Array.to_list committed)
