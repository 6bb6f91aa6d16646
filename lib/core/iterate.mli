(** The top-level iterative loop — the paper's
    [BatteryAwareSQNDPAllocation] (Fig. 1).

    Each iteration sweeps all windows for the current sequence, derives
    a new current-weighted sequence (Eq. 4) from the winning assignment,
    and re-costs it; the loop stops as soon as an iteration fails to
    improve on the previous one (or at the configured iteration cap).
    Full traces are retained so the experiment harness can regenerate
    the paper's Tables 2 and 3 verbatim in structure.  {!run_multistart}
    runs the same loop from extra random seeds, fanned out over the
    configured pool. *)

open Batsched_taskgraph
open Batsched_sched

type iteration = {
  index : int;                       (** 1-based, as in Table 2 *)
  sequence : int list;               (** L: the sequence swept (S<i>) *)
  windows : Window.t;                (** per-window data (Table 3 row) *)
  weighted_sequence : int list;      (** Ltemp (S<i>w) *)
  weighted_sigma : float;            (** cost of (Ltemp, best assignment) *)
  min_sigma : float;                 (** iteration best: min of window best
                                         and [weighted_sigma] *)
}

type result = {
  iterations : iteration list;       (** in execution order *)
  schedule : Schedule.t;             (** overall best (sequence, assignment) *)
  sigma : float;                     (** its battery cost, mA*min *)
  finish : float;                    (** its completion time, minutes *)
}

val run : ?on_iteration:(iteration -> unit) -> Config.t -> Graph.t -> result
(** Run the algorithm to termination.  [on_iteration] is invoked after
    each iteration completes — the anytime hook matching the paper's
    claim that a valid, deadline-meeting schedule exists at every
    iteration boundary (pair it with {!schedule_of_iteration}); an
    embedded caller can stop consuming whenever its budget runs out.
    Progress is also logged through {!Batsched_obs.Log} at debug level
    (quiet unless the embedder raises the level), each iteration is
    wrapped in an ["iteration"] span on [cfg.obs], and per-iteration
    work lands in the {!Batsched_numeric.Probe} counters.
    @raise Config.Deadline_unmeetable if the deadline cannot be met at
    all. *)

val run_multistart :
  ?on_iteration:(iteration -> unit) -> rng:Batsched_numeric.Rng.t ->
  starts:int -> Config.t -> Graph.t -> result
(** Multi-start variant: the first start is the paper's
    [SequenceDecEnergy] seed; the remaining [starts - 1] seeds are
    uniformly random linearizations.  Returns the best run (its
    [iterations] trace belongs to the winning start).  [starts = 1]
    reduces exactly to {!run}.  The paper's single greedy seed
    occasionally loses to blind random search on tight instances;
    a handful of extra starts closes that gap at proportional cost.

    Starts are independent and fan out over [cfg.pool].  The seed
    sequences are drawn from [rng] before the fan-out and the winner
    is picked by lowest sigma with ties resolving to the earlier seed,
    so the returned result is bit-identical at any pool size; with a
    parallel pool, [on_iteration] runs on worker domains (possibly
    concurrently) and must be thread-safe.
    @raise Invalid_argument if [starts < 1].
    @raise Config.Deadline_unmeetable as {!run}. *)

val schedule_of_iteration : Graph.t -> iteration -> Schedule.t
(** The better of (L, S) and (Ltemp, S) for one iteration — the paper's
    point that "in any given iteration a valid schedule and assignment
    is available which can be used". *)
