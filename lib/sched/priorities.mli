(** The three sequencing rules used in the paper.

    All are instances of the list-scheduling skeleton
    {!Batsched_taskgraph.Analysis.list_schedule}: among ready tasks the
    largest weight goes first.

    The two subgraph rules ({!weighted_sequence}, {!greedy_mean_current})
    compute every task's weight once per call: one DFS per task plus
    one ascending-id scan, O(n * (n + e)) time for [n] tasks and [e]
    edges, and O(n) words of allocation.  The sums are the same
    compensated sums, in the same order, as [Kahan.sum_list] over
    {!Batsched_taskgraph.Analysis.descendants}. *)

open Batsched_taskgraph

val sequence_dec_energy : Graph.t -> int list
(** The paper's [SequenceDecEnergy]: weight = average energy over the
    task's design points; produces the initial sequence L. *)

val weighted_sequence : Graph.t -> Assignment.t -> int list
(** The paper's [FindWeightedSequence] (Eq. 4): weight of [v] is the
    sum of the {e chosen} design-point currents over the subgraph
    rooted at [v] (including [v]). *)

val greedy_mean_current : Graph.t -> Assignment.t -> int list
(** The sequencing rule of baseline [1] (Eq. 5): weight of [v] is
    [max(I_v, mean I over the subgraph rooted at v)] with chosen
    currents. *)
