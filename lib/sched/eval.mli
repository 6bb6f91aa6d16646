(** Incremental schedule evaluation for the local-search hot loops.

    An [Eval.t] pairs a {!Batsched_battery.Delta} evaluator with the
    task-level state of one schedule: the sequence (position -> task),
    its inverse, and the design-point assignment.  Search loops cost
    candidate moves through {!try_swap} / {!try_repoint} — O(1) and
    O(position) respectively for incremental battery models, instead
    of the O(n) full profile evaluation per candidate — then {!commit}
    or {!discard} each candidate before trying the next.

    Committed sigma values agree with
    [Schedule.battery_cost ~model g (to_schedule t)] within 1e-9
    relative (see {!Batsched_battery.Delta} for why not bit-for-bit).
    The sequence mirror is only mutated through precedence-checked
    swaps from a validated starting schedule, which is what makes the
    {!to_schedule} fast path ([Schedule.unsafe_make]) sound. *)

open Batsched_taskgraph
open Batsched_battery

type t

val make : model:Model.t -> Graph.t -> Schedule.t -> t
(** Build an evaluator positioned at the given schedule.  O(n) model
    terms. *)

val load : t -> Schedule.t -> unit
(** Re-seat an existing evaluator on another schedule of the same
    graph, dropping any pending move; reuses the internal arrays.
    @raise Invalid_argument on a sequence length mismatch. *)

val graph : t -> Graph.t

val length : t -> int
(** Number of tasks. *)

val sigma : t -> float
(** Committed battery cost at the schedule's completion instant. *)

val finish : t -> float
(** Committed completion time. *)

val task_at : t -> int -> int
(** Task id at a sequence position. *)

val position : t -> int -> int
(** Sequence position of a task id. *)

val column : t -> int -> int
(** Committed design-point column of a task id. *)

val swap_allowed : t -> int -> bool
(** Whether exchanging positions [k] and [k+1] preserves precedence:
    true iff there is no direct edge between the two tasks (transitive
    constraints cannot bind between adjacent positions).  O(out-degree)
    instead of the O(n+e) full topological check.
    @raise Invalid_argument if [k+1] is out of range. *)

val try_swap : t -> int -> float * float
(** Cost exchanging positions [k] and [k+1]; returns the candidate
    [(sigma, finish)] without committing.  The finish is invariant
    under swaps.
    @raise Invalid_argument if the swap violates a precedence edge, is
    out of range, or a move is already pending. *)

val try_repoint : t -> task:int -> col:int -> float * float
(** Cost moving [task] to design-point column [col]; returns the
    candidate [(sigma, finish)] without committing.
    @raise Invalid_argument on bad task/column or a pending move. *)

val commit : t -> unit
(** Adopt the pending candidate (updates sequence / assignment mirrors
    and the delta state).  @raise Invalid_argument if none pending. *)

val discard : t -> unit
(** Drop the pending candidate.
    @raise Invalid_argument if none pending. *)

val sequence : t -> int list
(** Committed sequence (position order). *)

val assignment : t -> Assignment.t
(** Committed assignment (validated copy; O(n)). *)

val to_schedule : t -> Schedule.t
(** Committed state as a schedule, via [Schedule.unsafe_make] (the
    sequence is topological by construction — see the module
    preamble).
    @raise Invalid_argument if a move is pending. *)
