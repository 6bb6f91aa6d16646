(** Structural analyses over task graphs: linearizations, rooted
    subgraphs, and the aggregate quantities the scheduling metrics
    need. *)

val is_topological : Graph.t -> int list -> bool
(** [is_topological g seq] checks that [seq] is a permutation of
    [0 .. n-1] in which every task appears after all its
    predecessors.  O(n + e): one pass over [seq], then each edge is
    read from the successor lists; no edge list is built. *)

val list_schedule : weight:(int -> float) -> Graph.t -> int list
(** [list_schedule ~weight g] is the paper's list-scheduling skeleton:
    repeatedly pick, among the ready tasks (all predecessors already
    scheduled), the one with the largest [weight]; ties break on the
    smaller task id.  Returns a valid linearization of [g].

    [weight] must be pure: it is evaluated once per task, in id order,
    before the first pick. *)

val list_schedule_weights : Graph.t -> float array -> int list
(** [list_schedule_weights g w] is [list_schedule ~weight:(Array.get w)
    g] without a closure call per task, which would box each weight.
    @raise Invalid_argument unless [w] has one weight per task. *)

val any_topological_order : Graph.t -> int list
(** A canonical linearization (list schedule with all-equal weights,
    i.e. smallest-id-first among ready tasks). *)

val all_topological_orders : ?limit:int -> Graph.t -> int list list
(** Every linearization of [g], for exhaustive baselines.  Stops after
    [limit] (default 1_000_000) orders to bound blowup; the result is
    truncated, not an error, when the limit is hit. *)

val count_topological_orders : ?limit:int -> Graph.t -> int
(** Number of linearizations, capped at [limit] (default
    1_000_000). *)

val descendants : Graph.t -> int -> int list
(** [descendants g v] is the vertex set of the subgraph rooted at [v]
    — [v] itself plus everything reachable from it (ascending order).
    This is the "G_v" of the paper's Eqs. 4 and 5. *)

val column_time : Graph.t -> int -> float
(** [column_time g j] is the paper's [C_T(j)]: total execution time if
    every task runs at design-point column [j] (0-based).
    @raise Invalid_argument if [j] is out of range. *)

val serial_time_bounds : Graph.t -> float * float
(** [(fastest, slowest)] total execution times —
    [column_time g 0, column_time g (m-1)].  A deadline is meetable iff
    it is at least [fastest]. *)

