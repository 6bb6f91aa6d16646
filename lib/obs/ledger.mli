(** Persistent run registry: one JSON manifest per instrumented run.

    Manifests live in a ledger directory ([$BATSCHED_LEDGER], else
    [~/.basched/runs], else [--ledger DIR]) and record provenance
    (git rev, instance hash, model, knobs, seed, pool size), outcome
    (wall time, final sigma/finish), a work-counter snapshot and a
    downsampled best-so-far convergence curve.  [basched runs] lists
    and inspects them; [basched profile] aggregates them into anytime
    performance profiles. *)

type spec = {
  tool : string;           (** ["basched"] | ["battsim"] | ["bench"] *)
  label : string;          (** algo/scenario label, e.g. ["anneal"] *)
  instance : string;       (** instance file path or scenario name *)
  instance_hash : string;  (** content hash of the instance, if any *)
  model : string;
  seed : int;
  pool_size : int;
  knobs : (string * string) list;  (** flag name -> rendered value *)
  wall_s : float;
  sigma : float option;    (** final objective (lifetime proxy) *)
  finish : float option;   (** final makespan, when meaningful *)
  events_path : string option;
  curve : (float * float * float) list;
      (** best-so-far improvements as (seconds, evals, sigma) *)
}
(** What the writing tool knows about the run it just finished.  The
    counter snapshot is taken from {!Batsched_numeric.Probe.totals} at
    {!record} time. *)

type entry = {
  id : string;
  schema : int;
  created : float;         (** epoch seconds *)
  e_tool : string;
  e_label : string;
  e_instance : string;
  e_instance_hash : string;
  e_model : string;
  e_seed : int;
  e_pool_size : int;
  git_rev : string;
  e_wall_s : float;
  e_sigma : float option;
  e_finish : float option;
  e_events_path : string option;
  e_knobs : (string * string) list;
  counters : (string * float) list;
  e_curve : (float * float * float) list;
}

val default_dir : unit -> string
(** [$BATSCHED_LEDGER] when set and nonempty, else [~/.basched/runs]. *)

val record : dir:string -> spec -> (string, string) result
(** Write one manifest; returns its id.  Creates [dir] as needed and
    garbage-collects the oldest manifests past the retention limit
    ([$BATSCHED_LEDGER_KEEP], default 1000).  Never raises — a ledger
    failure must not fail the run it describes. *)

val load : string -> entry list * int
(** All readable manifests in a directory, oldest first, plus a count
    of files skipped (unparseable or wrong schema version).  An absent
    directory reads as empty. *)

val find : string -> string -> (entry, string) result
(** [find dir id_or_prefix] resolves an exact id, else a unique
    prefix; the error describes no-match and ambiguity. *)

val git_rev : unit -> string
(** Short git revision of the working directory, or ["unknown"]. *)
