(** Design-point selection for a fixed sequence — the paper's
    [ChooseDesignPoints] and [CalculateDPF] (Figs. 1–2).

    Walking the sequence from the last task to the first, each task is
    "tagged" at every column the window allows; the suitability
    [B = SR + CR + ENR + CIF + DPF] of each tagging is evaluated against
    a hypothetical completion of the still-free prefix, and the column
    with the least [B] is fixed.  Columns are 0-based (0 = fastest);
    a window [ws] allows columns [ws .. m-1].

    {2 Incremental evaluation}

    Both entry points carry one hypothetical completion across every
    tagged position of a call.  Free tasks sit in a linked list in
    energy order around an upgrade boundary; serial time and energy are
    compensated running sums and the current-increase count is exact,
    so each column change is an O(1) patch.  A trial moves the boundary
    only as far as the deadline demands, and moving to the next position
    unlinks one task.  A call costs O(n·m) plus the boundary moves
    instead of O(n²·m) (derivation in DESIGN.md §9).  The walk needs
    each task's durations to be non-decreasing in the column index,
    which [Task.make] guarantees by sorting every task's points by
    duration.  The seed's per-trial evaluation is the test oracle
    [Batsched_oracles.Choose]; the property tests pin selection identity
    against it on the published instances and on random fork-joins of
    up to ~130 tasks, and metric agreement to within 1e-9 (the only
    deviation is compensated-summation rounding, a few ulps). *)

open Batsched_taskgraph
open Batsched_sched

type dpf_result = {
  enr : float;
  cif : float;
  dpf : float;           (** [infinity] if the tagging is infeasible *)
  hypothetical : Assignment.t;
      (** the free-prefix completion used for ENR/CIF: free tasks parked
          at lowest power, upgraded lowest-average-energy-first until
          the deadline holds *)
}

val calculate_dpf :
  Config.t -> Graph.t -> sequence:int array -> assignment:Assignment.t ->
  tagged_pos:int -> window_start:int -> dpf_result
(** [calculate_dpf cfg g ~sequence ~assignment ~tagged_pos ~window_start]
    evaluates the paper's [CalculateDPF] for the task at position
    [tagged_pos]: [assignment] must already hold the fixed suffix
    (positions after [tagged_pos]), the tagged column at [tagged_pos],
    and all earlier (free) tasks at the lowest-power column.  Free
    tasks are upgraded one column at a time, in increasing
    average-energy order, until the serial time meets the deadline;
    running out of upgrades yields [dpf = infinity].  When
    [tagged_pos = 0] (no free task remains) [dpf] is the slack ratio of
    the complete assignment, per the pseudocode's last-task rule.
    @raise Invalid_argument
    ["Choose.calculate_dpf: sequence is not a permutation of the task ids"]
    if [sequence] is not a permutation of [0 .. n-1].
    @raise Invalid_argument
    ["Choose.calculate_dpf: assignment does not cover the graph's tasks"]
    if [assignment] does not hold one in-range column per task of [g].
    @raise Invalid_argument ["Choose.calculate_dpf: tagged_pos out of range"]
    unless [0 <= tagged_pos < n].
    @raise Invalid_argument ["Choose.calculate_dpf: window_start out of range"]
    unless [0 <= window_start < m].
    @raise Invalid_argument
    ["Choose.calculate_dpf: free task not at the lowest-power column"]
    if a task before [tagged_pos] is not at column [m-1]. *)

val choose_design_points :
  Config.t -> Graph.t -> sequence:int list -> window_start:int ->
  Assignment.t
(** The paper's [ChooseDesignPoints]: returns the committed assignment
    for [sequence] under the window.  The last task is fixed at the
    slowest column that leaves the remaining tasks feasible at the
    window's fastest column (the paper unconditionally uses the
    lowest-power column, which only works with enough slack — see
    DESIGN.md); every other task gets the column minimizing [B], ties
    resolving to the lower-power column.
    @raise Invalid_argument if [sequence] is not a linearization or
    [window_start] is out of range.
    @raise Config.Deadline_unmeetable if no feasible choice exists for
    some task (cannot happen when [window_start] satisfies
    [Analysis.column_time g window_start <= deadline]). *)
