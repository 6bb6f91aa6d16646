(** A TGFF-dialect reader and writer.

    TGFF ("Task Graphs For Free") is the de-facto workload generator in
    the embedded-scheduling literature, including the battery-aware
    papers this repository reproduces.  This module speaks a documented
    {e subset/dialect} of its block format, extended with per-column
    design-point tables (stock TGFF attaches one execution time per PE
    table; we attach current/duration/voltage triples per design
    point):

    {v
    @TASK_GRAPH 0 {
      PERIOD 300
      TASK t0  TYPE 0
      TASK t1  TYPE 1
      ARC a0  FROM t0  TO t1  TYPE 0
      HARD_DEADLINE d0 ON t1 AT 230
    }
    @DESIGN_POINT 0 {
    # type  current  duration  voltage
      0     917      7.3       1.0
      1     519      11.2      1.0
    }
    @DESIGN_POINT 1 {
      0     563      11.2      0.85
      1     319      17.3      0.85
    }
    v}

    [@DESIGN_POINT k] is the k-th column (fastest first); every task
    TYPE must appear in every design-point block.  [#] comments and
    blank lines are ignored.  Only the first [@TASK_GRAPH] block is
    read. *)

exception Parse_error of { line : int; message : string }

type document = {
  graph : Graph.t;
  deadline : float option;  (** the first HARD_DEADLINE's AT value *)
  period : float option;    (** the PERIOD attribute if present *)
}

val of_string : string -> document
(** @raise Parse_error on malformed input. *)

val to_string : ?deadline:float -> ?period:float -> Graph.t -> string
(** Render a graph in the dialect; one TYPE per task.
    [of_string (to_string g)] reconstructs an isomorphic graph. *)

val save : ?deadline:float -> ?period:float -> string -> Graph.t -> unit
