(** Reference for [Batsched.Choose]: the seed's per-trial evaluation of
    the paper's [ChooseDesignPoints] and [CalculateDPF] (Figs. 1–2).

    Every trial copies the committed columns, rescans the whole
    sequence and runs the upgrade loop from scratch, costing each term
    with the factor definitions of {!Factors} ([energy_ratio],
    [current_increase_fraction], [slack_ratio], [current_ratio]),
    [Metrics.dpf_static] and [Kahan.sum_fn].  It shares none of
    [Choose]'s tables.  A call costs O(n²·m).  It books the same
    [choose_calls] and [dpf_steps] probe counters as the seed did, and
    emits no events and opens no span. *)

open Batsched_taskgraph
open Batsched_sched

val energy_vector : Graph.t -> int list
(** The paper's energy vector E: task ids sorted by increasing
    {!Task.average_energy}, ties by id — the order in which
    [CalculateDPF] upgrades free tasks. *)

val calculate_dpf :
  Batsched.Config.t -> Graph.t -> sequence:int array ->
  assignment:Assignment.t -> tagged_pos:int -> window_start:int ->
  Batsched.Choose.dpf_result
(** The seed's [CalculateDPF].  Same contract as
    [Batsched.Choose.calculate_dpf], whose inputs it does not
    validate: free tasks (positions before [tagged_pos]) are upgraded
    one column at a time, in {!energy_vector} order, until the serial
    time meets the deadline.  Adds one to [dpf_steps] per step. *)

val choose_design_points :
  Batsched.Config.t -> Graph.t -> sequence:int list -> window_start:int ->
  Assignment.t
(** The seed's [ChooseDesignPoints], one {!calculate_dpf} evaluation per
    trial.  Same contract and errors as
    [Batsched.Choose.choose_design_points], which must select the same
    assignment. *)
