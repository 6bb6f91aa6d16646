(** Incremental (delta) sigma evaluation for one sequential schedule.

    A [Delta.t] holds the mutable evaluation state of a single
    back-to-back discharge profile observed at its makespan: the
    per-position intervals [(I_k, D_k)], their compensated
    suffix-duration sums [tail_k = sum_{j>k} D_j], the per-position
    contribution terms of the model's {!Model.channels}
    decomposition, and compensated running totals for sigma and the
    finish time.

    Moves follow a try / commit-or-discard protocol: [try_swap] and
    [try_set] cost a candidate without changing the committed state and
    return the candidate [(sigma, finish)]; exactly one of {!commit} or
    {!discard} must follow before the next [try_*] (a second [try_*]
    with a move pending raises [Invalid_argument] — the strictness
    catches protocol bugs in search loops).

    The model's kernel must be {!Model.Channels}: a {!Model.Stepper}
    (the diffusion PDE) has no per-interval terms to re-cost, and no
    search runs on it.  Costs per candidate: [try_swap] is O(1) — at
    most 2 term evaluations; [try_set] at position [i] is O(i) tail
    updates and, for a model with channels (whose terms read their
    tails), at most [i + 1] term evaluations (with an automatic switch
    to a fresh full sum when that is cheaper).

    Numerics: results agree with {!Model.sigma} at the makespan within
    1e-9 {e relative}, not bit-for-bit — the full path derives each
    recovery time in forward coordinates ([at - start - duration]),
    the delta path as a suffix sum, and the two differ by ulps.  The
    running sigma total is re-summed from the stored terms every
    [max 32 n] commits so drift never accumulates across a long
    search. *)

type t

val create : Model.t -> t
(** An empty evaluator (zero positions) for the given model.  Its
    arrays grow geometrically on {!load}, so one evaluator can be
    reused across instances without reallocation churn.
    @raise Invalid_argument, naming the model, if its kernel is a
    {!Model.Stepper}. *)

val load : t -> n:int -> point:(int -> float * float) -> unit
(** [load t ~n ~point] resets [t] to the [n]-interval schedule whose
    position [i] draws [point i = (current_i, duration_i)], dropping
    any pending move.  O(n) model-term evaluations.  Zero-duration
    positions are kept (their term is exactly [0.], so sigma matches
    the profile path, which drops them).
    @raise Invalid_argument on negative [n], negative or non-finite
    current or duration. *)

val of_profile : Model.t -> Profile.t -> t
(** Build from an existing profile.
    @raise Invalid_argument if the profile has idle gaps (e.g. from
    [Profile.with_idle]): a gapped load has no suffix-time
    decomposition at the makespan — use the model's full path
    instead. *)

val sigma : t -> float
(** Committed sigma at the makespan.  Pending candidates do not
    affect it. *)

val finish : t -> float
(** Committed makespan (sum of all durations). *)

val try_swap : t -> int -> float * float
(** [try_swap t k] costs exchanging positions [k] and [k+1] and
    returns the candidate [(sigma, finish)].  The finish never changes
    under a swap; for a model without channels sigma is unchanged too
    and no terms are evaluated.  A candidate value-identical to the
    committed state (both intervals equal; likewise for {!try_set}
    onto the current values) returns the committed pair bit-for-bit —
    the full evaluator yields an exact tie there too, and search
    loops compare energies exactly.
    @raise Invalid_argument if [k+1] is out of range or a move is
    already pending. *)

val try_set : t -> int -> current:float -> duration:float -> float * float
(** [try_set t i ~current ~duration] costs replacing position [i]'s
    interval and returns the candidate [(sigma, finish)].  O(i).
    @raise Invalid_argument on range, sign or finiteness violations,
    or if a move is already pending. *)

val commit : t -> unit
(** Make the pending candidate the committed state.  O(1) for swaps,
    O(i) blits for sets.
    @raise Invalid_argument if no move is pending. *)

val discard : t -> unit
(** Drop the pending candidate.  O(1).
    @raise Invalid_argument if no move is pending. *)

val refresh : t -> unit
(** Force the periodic full re-sum of sigma from the stored terms now
    (normally automatic).  Exposed for drift tests. *)
