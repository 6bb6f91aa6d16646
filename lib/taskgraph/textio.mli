(** Plain-text task-graph interchange format and DOT export.

    The format is line based; [#] starts a comment.  A file contains:

    {v
    graph G3
    task T1 917:7.3:1.0 563:11.2:0.85 288:15.0:0.68
    task T2 519:11.2:1.0 319:17.3:0.85 163:23.1:0.68
    edge T1 T2
    v}

    Each [task] line names a task followed by its design points as
    [current:duration:voltage] triples (voltage optional, default 1);
    all tasks need the same number of points.  Task ids are assigned in
    file order.  [edge a b] declares a dependence of [b] on [a].

    The parser makes one pass over the text and copies out only the
    strings the graph keeps.  A plain decimal ([[+-]ddd[.ddd]]) with at
    most 15 significant digits and at most 22 fraction digits is read
    as one division of two exact doubles, which rounds once and so
    equals [float_of_string] bit for bit; every other number (an
    exponent, an underscore, more digits) goes to [float_of_string]. *)

exception Parse_error of { line : int; message : string }
(** Raised with a 1-based line number on malformed input. *)

val of_string : string -> Graph.t
(** Parse a graph from the text format.  @raise Parse_error. *)

val to_string : Graph.t -> string
(** Render a graph in the text format; [of_string (to_string g)] is
    structurally equal to [g] up to float printing precision (exact for
    the shipped instances). *)

val load : string -> Graph.t
(** [load path] parses a file.  @raise Parse_error and [Sys_error]. *)

val save : string -> Graph.t -> unit
(** [save path g] writes {!to_string}. *)

val to_dot : Graph.t -> string
(** Graphviz rendering, one node per task labeled with its name and
    design-point span — handy for inspecting generated graphs. *)
