(** Applications as platform workloads: tasks sized in megacycles with
    precedence edges, compiled onto a {!Cpu} into the scheduler's task
    graph. *)

open Batsched_taskgraph

type workload = {
  name : string;
  megacycles : float;  (** > 0 *)
}

type t

val make : workloads:workload list -> edges:(int * int) list -> t
(** [make ~workloads ~edges] — indices into [workloads] as in
    {!Graph.make}; validation (acyclicity etc.) is deferred to
    compilation.
    @raise Invalid_argument on empty workloads or non-positive sizes. *)

val workloads : t -> workload list
val compile : ?label:string -> t -> cpu:Cpu.t -> Graph.t
(** Derive every task's design points from the CPU's operating points
    and build the scheduler-facing graph.
    @raise Invalid_argument via {!Graph.make} on structural errors. *)

val video_pipeline : t
(** A 6-stage motion-compensated video decode pipeline (capture,
    entropy decode, inverse transform, motion compensation in two
    parallel slices, render) — a realistic portable workload for
    examples and experiments. *)

val sensor_fusion : t
(** A 9-task sensor-fusion/telemetry loop with a fork-join shape. *)
