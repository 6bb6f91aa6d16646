(** Directed acyclic task graphs.

    Vertices are {!Task.t} values indexed [0 .. n-1]; edges encode data
    or control dependences.  All tasks of one graph expose the same
    number of design points [m], as the paper's matrix formulation
    assumes.  Tasks execute {e sequentially} on the single processing
    element, so a schedule is a linearization of the DAG. *)

type t

val make : ?label:string -> edges:(int * int) list -> Task.t list -> t
(** [make ~edges tasks] builds and validates a graph.  [tasks] must
    have ids exactly [0 .. n-1] (any order); [edges] are
    [(predecessor, successor)] pairs.  Duplicate edges are collapsed.
    @raise Invalid_argument on bad ids, self loops, a cycle, an empty
    task list, or tasks with differing design-point counts. *)

val label : t -> string
(** Display label ("G2", "G3", "fork-join-20", ...; empty by default). *)

val num_tasks : t -> int
(** Number of vertices [n]. *)

val num_points : t -> int
(** Shared design-point count [m]. *)

val task : t -> int -> Task.t
(** [task g i] is vertex [i].  @raise Invalid_argument if out of
    range. *)

val tasks : t -> Task.t list
(** All tasks in id order. *)

val preds : t -> int -> int list
(** Direct predecessors (sorted ascending). *)

val succs : t -> int -> int list
(** Direct successors (sorted ascending). *)

val edges : t -> (int * int) list
(** All edges, lexicographically sorted. *)

val num_edges : t -> int

val sinks : t -> int list
(** Vertices without successors. *)

val map_tasks : (Task.t -> Task.t) -> t -> t
(** [map_tasks f g] replaces each task ([f] must preserve the id and
    design-point count; validated).  Used to re-derive design points. *)
