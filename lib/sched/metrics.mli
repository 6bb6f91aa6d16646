(** The design-point fraction of the paper's Sec. 4.  [Choose]
    computes the other quality factors (SR, CR, ENR, CIF) inline.

    Columns are 0-based throughout: 0 = fastest/highest power,
    [m-1] = slowest/lowest power (paper's DP1..DPm shifted by one).
    A window [ws] allows columns [ws .. m-1] (paper's window
    "[ws+1]:m"). *)

open Batsched_taskgraph

val dpf_static :
  Graph.t -> Assignment.t -> free:int list -> window_start:int -> float
(** The design-point fraction of Eqs. 2–3 generalized to a window:
    [sum_{k=ws..m-1} (m-1-k)/(m-1-ws) * F_k] where [F_k] is the
    fraction of [free] tasks assigned to column [k].  Full-window
    ([ws = 0]) reduces to the paper's Eq. 2.  Empty [free] list or a
    single-column window yields 0.  Every free task's column must lie
    inside the window (the algorithm parks free tasks at column [m-1]
    and never upgrades past [ws]); the result is then in [[0, 1]].
    @raise Invalid_argument on out-of-range [window_start] or a free
    task assigned outside the window. *)
