(** Complete schedules: a linearization plus a design-point assignment.

    The platform executes tasks back to back in sequence order, each at
    its assigned design point; the induced discharge profile is what the
    battery model evaluates. *)

open Batsched_taskgraph
open Batsched_battery

type t = private {
  sequence : int list;      (** a valid linearization of the graph *)
  assignment : Assignment.t;
}

val make : Graph.t -> sequence:int list -> assignment:Assignment.t -> t
(** @raise Invalid_argument if [sequence] is not a topological order of
    the graph. *)

val unsafe_make : Graph.t -> sequence:int list -> assignment:Assignment.t -> t
(** [make] without the O(n+e) topological re-validation — only the
    sequence length is checked.  For hot paths (the delta-evaluating
    search loops) that construct sequences known-valid by construction:
    permutations reached from a validated order through precedence-
    checked adjacent swaps.  The caller owns that invariant; entry
    points parsing external input must keep using {!make}.
    @raise Invalid_argument if [sequence] has the wrong length. *)

val to_profile : Graph.t -> t -> Profile.t
(** Back-to-back discharge profile starting at time 0. *)

val finish_time : Graph.t -> t -> float
(** Completion time of the last task (= assignment's total time). *)

val meets_deadline : Graph.t -> t -> deadline:float -> bool
(** [finish_time <= deadline] with a 1e-9 tolerance for float noise in
    published 0.1-minute data. *)

val battery_cost : model:Model.t -> Graph.t -> t -> float
(** The paper's [CalculateBatteryCost]: sigma at the schedule's
    completion instant. *)

val pp : Graph.t -> Format.formatter -> t -> unit
(** Paper-style rendering: task names in sequence order and the DP row
    ("T1,T4,T5,... / P5,P5,P4,..." with DPs in sequence order). *)

val pp_sequence : Graph.t -> Format.formatter -> int list -> unit
(** Just the comma-separated task names of a sequence. *)
