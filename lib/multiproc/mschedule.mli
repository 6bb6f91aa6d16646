(** Multiprocessor schedules over a shared battery.

    The paper schedules on one processing element; its main related
    work (Luo & Jha, DAC 2001) targets several PEs drawing from a
    single battery — concurrent task currents {e add}, so parallel
    slow-and-low execution trades rate-capacity losses against serial
    fast execution.  This module provides the schedule representation
    for [p] PEs: every task gets a PE, a design-point column, and a
    start time; tasks on one PE serialize; dependences hold across PEs
    (communication is free, as in the cited work).  The battery sees
    the {e superposition} of all PEs' discharge profiles.

    PEs may be heterogeneous (big.LITTLE-style): each has a [speed]
    factor dividing task durations and a [current_scale] multiplying
    task currents.  The identical-PE case is [Pe.uniform]. *)

open Batsched_taskgraph
open Batsched_sched
open Batsched_battery

module Pe : sig
  type t = {
    speed : float;          (** > 0; durations divide by this *)
    current_scale : float;  (** > 0; currents multiply by this *)
  }

  val uniform : int -> t array
  (** [uniform p] is [p] identical PEs of speed 1 and current scale 1.
      @raise Invalid_argument if [p < 1]. *)

  val big_little : big:int -> little:int -> t array
  (** [big] fast cores (speed 1, scale 1) plus [little] efficiency
      cores (speed 0.6, current scale 0.35 — the classic asymmetric
      trade).  @raise Invalid_argument on a non-positive total. *)
end

type placement = {
  pe : int;            (** processing element index *)
  column : int;        (** design-point column (0 = fastest) *)
  start : float;       (** start time, minutes *)
}

type t = private {
  pes : Pe.t array;
  placements : placement array;  (** indexed by task id *)
}

val task_duration : Graph.t -> Pe.t array -> int -> placement -> float
(** Effective duration of a task under its placement (design-point
    duration divided by the PE's speed). *)

val make : Graph.t -> pes:Pe.t array -> placement list -> t
(** [make g ~pes placements] (one per task, in id order) validates:
    PE and column ranges, non-overlap of tasks sharing a PE, and every
    dependence edge finishing before its successor starts (1e-9
    tolerance).
    @raise Invalid_argument on any violation. *)

val list_schedule :
  Graph.t -> pes:Pe.t array -> assignment:Assignment.t ->
  priority:(int -> float) -> t
(** Insertion-free list scheduling: repeatedly take the
    highest-priority ready task and start it as early as possible on
    the PE that lets it {e finish} first (accounting for PE speeds),
    given the columns fixed by [assignment]. *)

val placement : t -> int -> placement
val makespan : Graph.t -> t -> float

val to_profile : Graph.t -> t -> Profile.t
(** The battery-facing superposed discharge profile. *)

val battery_cost : model:Model.t -> Graph.t -> t -> float
(** sigma at the makespan. *)

val peak_total_current : Graph.t -> t -> float
(** Largest instantaneous total platform current — parallel execution
    raises it even when per-task currents are small. *)
