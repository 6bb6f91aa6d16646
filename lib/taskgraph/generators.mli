(** Synthetic task-graph families.

    All generators are deterministic given the {!Batsched_numeric.Rng.t}
    and produce graphs whose design points follow the paper's cube
    scaling law (see {!Designpoints}).  Fork-join graphs are the family
    the paper highlights ("such task graphs have been used in
    multiprocessor scheduling research to model the structure of
    commonly encountered parallel algorithms"). *)

type spec = {
  num_points : int;          (** design points per task, >= 2 *)
  current_lo : float;        (** base (fastest) current lower bound, mA *)
  current_hi : float;        (** base current upper bound, mA *)
  duration_lo : float;       (** base (fastest) duration lower bound, min *)
  duration_hi : float;       (** base duration upper bound, min *)
}

val default_spec : spec
(** 5 design points, currents 300..1000 mA, durations 3..12 min —
    the G3 regime. *)

val chain : rng:Batsched_numeric.Rng.t -> spec:spec -> n:int -> Graph.t
(** A linear pipeline [0 -> 1 -> ... -> n-1].
    @raise Invalid_argument if [n < 1]. *)

val fork_join :
  rng:Batsched_numeric.Rng.t -> spec:spec -> widths:int list -> Graph.t
(** [fork_join ~widths] alternates single junction tasks with parallel
    stages of the given widths:
    [J0 -> stage1(w1) -> J1 -> stage2(w2) -> J2 -> ...].  G3 is shaped
    like [fork_join ~widths:[2+2; 2; 3]] with an extra tail.
    @raise Invalid_argument on empty [widths] or non-positive width. *)

val layered :
  rng:Batsched_numeric.Rng.t -> spec:spec -> layers:int -> width:int ->
  edge_prob:float -> Graph.t
(** [layers] ranks of [width] tasks; each task draws edges from the
    previous rank with probability [edge_prob], plus one guaranteed
    parent so no rank is disconnected.
    @raise Invalid_argument on non-positive dimensions or
    [edge_prob] outside [0, 1]. *)

val series_parallel :
  rng:Batsched_numeric.Rng.t -> spec:spec -> size:int -> Graph.t
(** A random series-parallel DAG grown by recursive series/parallel
    composition until roughly [size] tasks.
    @raise Invalid_argument if [size < 1]. *)

val random_dag :
  rng:Batsched_numeric.Rng.t -> spec:spec -> n:int -> edge_prob:float ->
  Graph.t
(** Erdos–Renyi-style DAG: edge [(i, j)], [i < j], present with
    probability [edge_prob] over a random vertex permutation.
    @raise Invalid_argument on [n < 1] or [edge_prob] outside
    [0, 1]. *)

val feasible_deadline : Graph.t -> slack:float -> float
(** [feasible_deadline g ~slack] maps [slack] in [[0, 1]] onto the
    meetable deadline range: 0 gives the all-fastest serial time (no
    slack), 1 the all-slowest serial time (every task may use its
    lowest-power point).
    @raise Invalid_argument if [slack] is outside [0, 1]. *)
