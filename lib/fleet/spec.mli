(** Fleet specification: the distributions a simulated device
    population is drawn from.

    A spec is parsed from a JSON file (see EXPERIMENTS.md for the
    schema and a walkthrough).  Every stochastic knob is a {!range} —
    written in JSON either as a plain number (a constant) or as
    [{"min": a, "max": b}] — sampled uniformly per device.  The spec
    also fixes the endurance horizon and the per-cycle workload shape:
    either a task graph whose design points are re-drawn per device, or
    synthetic bursts. *)

type range = { lo : float; hi : float }
(** Closed interval sampled uniformly; [lo = hi] pins a constant. *)

(** How a device picks the design point of each task in a graph
    cycle. *)
type law =
  | Uniform  (** independent uniform column per task *)
  | Fastest  (** column 0 everywhere: highest current, shortest cycle *)
  | Slowest  (** last column everywhere: lowest current, longest cycle *)

type model_spec =
  | Ideal
  | Peukert of { exponent : range; reference_current : range }
  | Rakhmatov of { beta : range; terms : int }
  | Kibam of { c : range; k_prime : range }
  | Pde of { beta : range; nodes : int; dt : float }
      (** diffusion PDE; [nodes]/[dt] are discretization knobs, fixed
          per spec (default 16 nodes, dt 0.25 — coarser than the
          library default, deliberately: fleet sweeps trade per-device
          fidelity for population size) *)

type weighted_model = {
  label : string;   (** name used in reports and histogram keys *)
  weight : float;   (** relative draw probability, > 0 *)
  model : model_spec;
}

type cycle_spec =
  | Graph of {
      name : string;  (** ["g2"] or ["g3"] — the bundled instances *)
      graph : Batsched_taskgraph.Graph.t;
      law : law;
    }
      (** one cycle = the graph's tasks run back-to-back in id order at
          the drawn design points *)
  | Bursts of { count : range; current : range; duration : range }
      (** one cycle = [count] back-to-back constant-current bursts
          ([count] is rounded down after sampling) *)

type t = {
  horizon : int;          (** censoring horizon, cycles (default 200) *)
  alpha : range;          (** rated capacity parameter, mA*min *)
  soh : range;            (** state-of-health factor scaling alpha *)
  period_factor : range;  (** period = factor * cycle length; >= 1 *)
  models : weighted_model list;
  cycle : cycle_spec;
}

val of_json : Batsched_obs.Json.t -> (t, string) result
(** Validate and compile a parsed JSON spec.  Unknown model names,
    empty model lists, non-positive weights, inverted ranges, a
    [period_factor] allowing [< 1], any non-finite number (an
    overflowing literal such as [1e999] parses as infinity), a
    [rakhmatov.beta] outside [Rakhmatov.valid_beta], a
    [rakhmatov.terms] above 10^4, a PDE grid above 1024 nodes, a
    fractional term or node count, a [pde.beta] whose top fails
    [Rakhmatov.valid_pde_grid] on the spec's grid, and a PDE [dt] that
    would split the longest possible span ([period_factor.hi] times the
    longest cycle) into 2^53 steps or more are all rejected with a
    message naming the offending field. *)

val of_file : string -> (t, string) result
(** [of_json] on a file's contents; I/O and parse errors are returned
    as [Error] too. *)

val default : t
(** A small built-in spec (g2 cycle, uniform law, all four analytic
    models) used by tests and as a template. *)
