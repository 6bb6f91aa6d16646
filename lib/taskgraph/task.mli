(** Tasks and their design points.

    A design point is one concrete implementation of a task: a
    voltage/frequency pair on a DVS processor or an alternative bitstream
    on an FPGA.  Following the paper's matrix conventions, a task's
    design points are stored {e fastest first}: execution times ascend
    and currents descend with the column index.  Column [0] is the
    highest-power/fastest point ("DP1" in the paper) and column [m-1]
    the lowest-power/slowest one ("DPm"). *)

type design_point = {
  current : float;   (** average platform current, mA, > 0 *)
  duration : float;  (** execution time, minutes, > 0 *)
  voltage : float;   (** supply voltage, volts, > 0 (1.0 if unmodeled) *)
}

type t = private {
  id : int;                     (** index within its graph, >= 0 *)
  name : string;                (** display name, e.g. "T7" *)
  points : design_point array;  (** sorted fastest first; length >= 1 *)
}

val make : id:int -> name:string -> design_point list -> t
(** [make ~id ~name points] validates and sorts the design points by
    ascending duration and checks that currents are non-increasing in
    that order (the power/performance trade-off the paper assumes).
    @raise Invalid_argument on empty list, non-positive fields, or a
    current ordering violating the trade-off. *)

val of_pairs : id:int -> name:string -> ?voltages:float list ->
  (float * float) list -> t
(** [of_pairs ~id ~name [(current, duration); ...]] is a convenience
    wrapper; [voltages] (same length, default all 1.0) supplies
    per-point supply voltages.
    @raise Invalid_argument as {!make}, or on a voltage length
    mismatch. *)

val num_points : t -> int
(** Number of design points [m] of this task. *)

val point : t -> int -> design_point
(** [point t j] is column [j] (0-based, fastest first).
    @raise Invalid_argument if out of range. *)

val fastest : t -> design_point
(** Column 0: minimum duration, maximum current. *)

val slowest : t -> design_point
(** Column [m-1]: maximum duration, minimum current. *)

val energy : t -> int -> float
(** [energy t j] = [I * V * D] of column [j] (mA*V*min). *)

val charge : t -> int -> float
(** [charge t j] = [I * D] of column [j] (mA*min). *)

val average_energy : t -> float
(** Mean of {!energy} over all columns — the weight used by the paper's
    [SequenceDecEnergy] and the ordering key of the energy vector E. *)
