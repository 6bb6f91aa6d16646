(** Exhaustive enumeration — exact optimum for small instances.

    Enumerates every deadline-feasible design-point assignment and, for
    each, every linearization, evaluating sigma exactly.  Cost is
    [O(m^n * #orders)]; guarded by explicit budgets so tests cannot
    accidentally explode. *)

open Batsched_taskgraph
open Batsched_battery

exception Infeasible
(** No assignment meets the deadline. *)

exception Too_large
(** The instance exceeds the enumeration budgets. *)

val run :
  ?max_assignments:int -> model:Model.t -> Graph.t -> deadline:float ->
  Solution.t
(** [run ~model g ~deadline] returns the minimum-sigma feasible
    schedule.  Budgets: 200_000 assignments by default, and 5_000
    orders.
    @raise Too_large before doing any work if [m^n] or the number of
    linearizations exceeds its budget; @raise Infeasible if no
    assignment fits the deadline. *)
