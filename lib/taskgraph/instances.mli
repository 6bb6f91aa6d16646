(** The paper's published benchmark instances, transcribed verbatim.

    [g3] is the 15-task, 5-design-point fork-join example of Sec. 4.2
    (Table 1); [g2] is the 9-task, 4-design-point robotic-arm controller
    of the Sec. 5 case study (Figure 5).  Currents and durations are
    the published numbers; per-column voltages come from the published
    scaling factors.  G2's edge set is reconstructed (the original is
    only a bitmap figure) — see DESIGN.md, "Substitutions". *)

val g3 : Graph.t
(** Table 1: 15 tasks, 5 design points, fork-join dependences; the
    illustrative example is run with deadline 230 min, beta 0.273. *)

val g3_deadline : float
(** 230.0 — the deadline used in Sec. 4.2. *)

val g2 : Graph.t
(** Figure 5: 9-task robotic-arm controller, 4 design points. *)

val g2_deadlines : float list
(** [55; 75; 95] — the case-study deadlines of Table 4. *)
