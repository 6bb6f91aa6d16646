(** Noise-aware comparison of two bench [--json] snapshots.

    Joins rows by scenario name (stripping the bechamel group prefix
    ["batsched/"]), sets a per-scenario threshold from the OLS fit
    quality on both sides plus the rerun-guard dispersion, and
    classifies each pair.  Additionally pairs ["X-reference/..."] rows
    in the {e new} snapshot with their optimized twins
    (["X-delta/..."] or ["X/..."]) — a machine-independent speedup
    check usable even when the old snapshot predates the scenario.

    The threshold per scenario is

    {v 0.10 + 0.5*(sqrt(1-r2_old) + sqrt(1-r2_new)) + disp_old + disp_new v}

    where [disp] is [|ns_first - ns_final| / ns_final] when the bench
    rerun guard re-measured the row.  Rows with [r_square] below 0.5
    on either side (or tagged [low_confidence]) never fail the gate:
    they classify as {!Low_confidence} and only warn. *)

type row = {
  name : string;  (** normalized: group prefix stripped *)
  ns_per_run : float;
  r_square : float;
  low_confidence : bool;
  ns_per_run_first : float option;
      (** first estimate, when the rerun guard re-measured the row *)
  counters : (string * float) list;
      (** the row's work-profile snapshot (the ["counters"] object);
          deterministic per scenario, so diffs are algorithmic changes *)
}

type verdict = Improved | Flat | Regressed | Low_confidence

type comparison = {
  scenario : string;
  old_ns : float;
  new_ns : float;
  ratio : float;  (** new/old after normalization *)
  threshold : float;
  verdict : verdict;
}

type counter_diff = {
  cd_scenario : string;
  cd_counter : string;
  cd_old : float;
  cd_new : float;
}

type report = {
  joined : comparison list;  (** rows present in both snapshots *)
  pairs : comparison list;  (** in-file reference pairs of the new one *)
  added : string list;
  removed : string list;
  norm_factor : float option;
      (** the median ratio divided out, when [~normalize] was set *)
  work : counter_diff list;
      (** counters that changed between joined rows — informational
          context for the timing verdicts; never affects
          {!has_confident_regression} *)
}

val row_of_json : Json.t -> row option
(** Parse one bench row object; [None] if name/ns_per_run missing. *)

val classify_pair :
  ?norm:float -> scenario:string -> row -> row -> comparison
(** [classify_pair ~scenario old new] applies the threshold rule to
    one pair; [norm] divides the new measurement first (default 1). *)

val compare_rows : ?normalize:bool -> row list -> row list -> report
(** Full comparison.  [~normalize:true] divides all new measurements
    by the median joined ratio, cancelling overall machine speed — use
    for cross-machine comparisons (CI versus a committed baseline);
    leave off when both snapshots come from the same machine. *)

val compare_files : ?normalize:bool -> string -> string -> report

val has_confident_regression : report -> bool
(** True when any row (joined or pair) classified {!Regressed} —
    low-confidence rows never count. *)

val verdict_string : verdict -> string

val to_string : report -> string
(** Render the report as an aligned text table with a summary line. *)
