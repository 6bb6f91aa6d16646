(** Anytime performance profiles over ledger entries.

    Best-so-far quality curves extracted from event streams,
    aggregated across runs into quantile bands, ERT-style
    expected-budget-to-target tables, and a bootstrap dominance
    verdict between two cohorts.  Deterministic throughout: fixed-seed
    bootstrap, no wall-clock reads — the same ledger always renders
    the same report. *)

type axis = [ `Time | `Evals ]
(** X coordinate for curves: wall seconds (machine- and
    pool-dependent) or cumulative evaluation count carried by the
    events themselves (pool-size-invariant). *)

type run = {
  pts : (float * float) array;
      (** improvement staircase: (x, best sigma), x ascending *)
  horizon : float;  (** total budget this run spent *)
}

val curve_of_events : Events.record list -> (float * float * float) list
(** Best-so-far improvements [(seconds, cumulative evals, sigma)]
    extracted from an in-memory event stream, downsampled to at most
    96 points.  This is what the ledger stores as the run's curve. *)

val curve_of_json : Json.t list -> (float * float * float) list
(** Same extraction from parsed JSONL event records (file-based). *)

val run_of_entry : axis:axis -> Ledger.entry -> run option
(** Project a ledger entry's curve onto an axis.  An entry with no
    curve but a final sigma becomes a one-point staircase; an entry
    with neither yields [None]. *)

val best_at : run -> float -> float option
(** Staircase lookup: best quality achieved at or before budget [x];
    [None] before the first improvement. *)

val hit_x : run -> target:float -> float option
(** First budget at which the run reaches quality [target]. *)

val ert : run list -> target:float -> float option
(** Expected running time to [target]: (Σ hitting budgets + Σ full
    budgets of runs that never hit) / #hits.  [None] if no run hits. *)

val targets : run list -> float list
(** Default target ladder: fractions of the gap between the worst
    starting quality and the best final quality across the runs. *)

val grid : ?n:int -> run list -> float list
(** Shared evaluation grid: [n] (default 24) equispaced budgets up to
    the largest horizon. *)

val band : run list -> x:float -> p:float -> float
(** Cross-run quality quantile [p] at budget [x]; runs with no
    improvement yet contribute their first (worst) quality. *)

type verdict = {
  a_wins : float;  (** bootstrap fraction where A scored lower *)
  score_a : float;
  score_b : float;
  resamples : int;
}

val dominance : ?seed:int -> run list -> run list -> verdict
(** Bootstrap comparison of two cohorts' anytime scores (mean median
    quality over the shared grid; lower is better) over 400 resamples.
    Fixed [seed] makes the verdict a pure function of the inputs. *)

val compare_to_string :
  ?axis:axis ->
  name_a:string ->
  name_b:string ->
  Ledger.entry list ->
  Ledger.entry list ->
  string
(** The [basched profile A B] report: aligned quantile bands, ERT
    table, dominance verdict. *)
