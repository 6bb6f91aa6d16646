(** The paper's normalized quality factors (Sec. 4) as the seed's
    per-trial [ChooseDesignPoints] computed them, one function per
    factor.  The shipped [Choose] computes them inline, incrementally;
    {!Choose} here is their only caller.  Columns are 0-based: 0 =
    fastest/highest power, [m-1] = slowest/lowest power. *)

open Batsched_taskgraph
open Batsched_sched

val current_range : Graph.t -> float * float
(** [(I_min, I_max)] over all design points of all tasks — the
    normalization constants of the Current Ratio. *)

val energy_bounds : Graph.t -> float * float
(** [(E_min, E_max)]: total energy if every task uses its
    lowest-power (slowest) resp. highest-power (fastest) design point —
    the normalization constants of the Energy Ratio. *)

val total_energy : Graph.t -> Assignment.t -> float
(** Sum of [I * V * D] over chosen points — the paper's [E_n]. *)

val total_charge : Graph.t -> Assignment.t -> float
(** Sum of [I * D] over chosen points (mA*min): the charge the load
    draws, which no battery model's sigma falls below. *)

val slack_ratio : deadline:float -> time:float -> float
(** SR = (d - t)/d.  Smaller is better (less unexploited slack); may be
    negative when over deadline.
    @raise Invalid_argument on non-positive deadline. *)

val current_ratio : Graph.t -> float -> float
(** [current_ratio g i] = (i - Imin)/(Imax - Imin) over all design
    points of all tasks of [g]; in [0, 1] for any current of the graph.
    Degenerate graphs (Imax = Imin) yield 0. *)

val energy_ratio : Graph.t -> Assignment.t -> float
(** ENR = (E_n - E_min)/(E_max - E_min) with E_n the assignment's total
    energy; in [0, 1].  Degenerate graphs yield 0. *)

val current_increase_fraction : Graph.t -> Assignment.t -> int list -> float
(** CIF: the fraction of adjacent sequence positions whose chosen
    current increases, in [0, 1].  Single-task sequences yield 0.
    @raise Invalid_argument on an empty sequence. *)

val suitability :
  sr:float -> cr:float -> enr:float -> cif:float -> dpf:float -> float
(** B = SR + CR + ENR + CIF + DPF — the selection objective; lower is
    better. *)
