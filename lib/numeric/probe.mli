(** Work counters for the hot paths, kept in per-domain accumulators.

    Counting is {e always on}: every bump is a plain mutable-field
    increment on the calling domain's private record, which costs a
    {!Domain.DLS} read and an integer store — noise next to the
    hashtable probe or float kernel it sits beside.  Nothing is shared
    between domains while work is running.

    {2 Merging and determinism}

    {!Pool}'s helper domains are persistent, so every domain that takes
    part in a parallel region or runs a job {!drain_local}s its record
    into a global accumulator when its share ends — the one drain
    point, where [Pool] also drains the domain's {!Histogram} shard.
    Integer addition
    commutes: the merged totals are independent of worker scheduling
    and join order.  The pure work counters ([sigma_evals],
    [dpf_steps], [window_evals], ...) and the top-level contribution
    {e lookup} count (hits + misses) are invariant across pool sizes;
    the hit/miss splits vary with cache warmth and worker placement
    because the memo tables are per-domain, and the F-memo counts vary
    entirely (the Series kernel only runs on a contribution-cache
    miss).

    Counters are process-global, not per-run: call {!reset} before a
    run you want to attribute counts to.  [Batsched_obs.Report] renders
    them; the bench harness snapshots them into its [--json] rows.
    Value distributions (Fcache probe lengths, delta commit batch sizes)
    go to {!Histogram}'s registry instead. *)

type t = {
  mutable sigma_evals : int;      (** [Model.sigma] calls, any model *)
  mutable fmemo_hits : int;       (** Series F-memo table hits *)
  mutable fmemo_misses : int;     (** Series F-memo table misses *)
  mutable contrib_hits : int;     (** per-interval contribution cache hits *)
  mutable contrib_misses : int;   (** per-interval contribution cache misses *)
  mutable dpf_steps : int;        (** CalculateDPF upgrade-loop steps *)
  mutable window_evals : int;     (** windows evaluated (choose + cost) *)
  mutable choose_calls : int;     (** [Choose.choose_design_points] calls *)
  mutable iterations : int;       (** outer iterations of the main loop *)
  mutable anneal_accepted : int;  (** annealing moves accepted *)
  mutable anneal_rejected : int;  (** annealing moves rejected *)
  mutable anneal_noops : int;     (** no-op repoints skipped without evaluation *)
  mutable delta_swaps : int;      (** delta-evaluator swap candidates costed *)
  mutable delta_repoints : int;   (** delta-evaluator repoint candidates costed *)
  mutable delta_commits : int;    (** delta-evaluator moves committed *)
  mutable delta_discards : int;   (** delta-evaluator moves discarded *)
  mutable delta_terms : int;      (** per-position contribution terms recomputed *)
  mutable delta_full_evals : int;
  (** Always 0: the delta evaluator costs every model through its
      kernel, so nothing bumps it.  Kept so the [--stats] table and the
      bench and perfbench readers of this field keep their layout. *)
  mutable fcache_evictions : int; (** Fcache generation flips (half-table expiries) *)
  mutable pool_regions : int;     (** parallel regions actually fanned out *)
  mutable pool_tasks : int;       (** items mapped through [Pool.map_array] *)
  mutable pool_steals : int;      (** region chunks claimed by helper domains *)
  mutable named : (string * int) list;
  (** Open-keyed counters for populations too dynamic for a fixed
      field — e.g. ["periodic/carried_devices"] and ["fleet/deaths"].
      Bump via {!bump_named}; merged by key in {!add}. *)
}

val local : unit -> t
(** The calling domain's accumulator.  Bump its fields directly. *)

val zero : unit -> t
(** A fresh all-zero record. *)

val add : into:t -> t -> unit
(** [add ~into c] adds every field of [c] into [into]. *)

val clear : t -> unit
(** Zero every field in place. *)

val drain_local : unit -> unit
(** Merge the calling domain's accumulator into the global totals and
    zero it.  Called by [Pool] workers after each region share or job;
    harmless to call at any other time. *)

val totals : unit -> t
(** Global totals: everything drained so far plus the calling domain's
    live accumulator (which is left untouched). *)

val reset : unit -> unit
(** Zero the drained totals and the calling domain's accumulator. *)

val fields : (string * (t -> int)) list
(** Stable (name, getter) list driving reports and JSON dumps, in
    declaration order.  Named counters are not included; render them
    via {!named_counts}. *)

val bump_named : t -> string -> int -> unit
(** [bump_named c name v] adds [v] under [name] in [c]'s named
    counters, creating the key on first use. *)

val named_counts : t -> (string * int) list
(** The named counters sorted by key (the assoc list itself carries
    keys in first-bump order, which is not stable across pool
    schedules). *)
