(** Parsing and validation of [basched serve] requests.

    The wire format is newline-framed JSON: one object per line, either
    a scheduling request or a cancellation.  A request names a task
    graph (inline, in the {!Batsched_taskgraph.Textio} format), a
    deadline, and optional search knobs; defaults match the single-shot
    [basched] CLI so a served request with the same seed and knobs is
    bit-identical to a command-line run.

    {v
    {"id":"r1","deadline":9.0,"algo":"annealing","seed":7,
     "graph":"graph g\ntask A 600:2 350:3 150:5\ntask B 519:3 319:4\nedge A B"}
    {"cancel":"r1"}
    v} *)

open Batsched_taskgraph
open Batsched_battery

type search = {
  algo : string;  (** iterative | iterative-ms | annealing | random *)
  model_name : string;  (** rakhmatov | kibam | peukert | ideal *)
  beta : float;  (** Rakhmatov beta (default: the paper's) *)
  seed : int;  (** RNG seed (default 0) *)
  starts : int;  (** multistart fan-out for iterative-ms (default 4) *)
  steps : int option;  (** annealing steps per temperature level *)
  t0 : float option;  (** annealing initial temperature *)
  samples : int option;  (** random-search sample budget *)
}

type t = { id : string; graph : Graph.t; deadline : float; search : search }

type incoming =
  | Submit of t
  | Cancel of string  (** request id to cancel *)

val algos : string list
val models : string list

val model : search -> Model.t
(** Instantiate the battery model a request asked for. *)

val of_json : string -> (incoming, string) result
(** Parse and validate one request line.  A request that parses always
    runs: unknown algos/models, non-positive deadlines, malformed
    graphs and knobs out of range ([t0] must be positive and finite;
    [starts], [steps] and [samples] integers from 1 to 2^53) are
    rejected here with a message, naming the field, suitable for an
    error response. *)
