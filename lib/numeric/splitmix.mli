(** SplitMix64: the repository's one pseudo-random core.

    Every deterministic stream in the repo is SplitMix64 underneath —
    {!Rng} (search walks, graph generators), the bootstrap resampler in
    [Batsched_obs.Profile], and the fleet sampler's per-device
    substreams.  This module is the shared primitive: a 64-bit state
    advanced by the golden-gamma increment and finalized by the
    Stafford mix13 permutation.

    The draw functions here reproduce the historical call sites
    bit-for-bit ({!next} is {!Rng}'s raw draw, {!rand_below} is the
    bootstrap's rem-based pick), so extracting the generator changed no
    committed stream.

    {2 Substreams}

    {!substream} derives child stream [i] as a {e pure function} of the
    parent state and [i] — the parent is neither read destructively nor
    advanced, and children with distinct indices never collide (the
    state jump is injective in [i]).  A population sampler that seeds
    device [i] from [substream base i] therefore produces the same
    device no matter how the index range is sharded across domains:
    pool-size invariance by construction, not by careful scheduling. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] premixes the seed once — equal seeds, equal streams.
    This is the {!Rng}-compatible construction. *)

val of_raw : int64 -> t
(** [of_raw state] adopts [state] verbatim (no premix) — the
    construction the [Batsched_obs.Profile] bootstrap has always used,
    kept for bit-compatibility with committed dominance verdicts. *)

val next : t -> int64
(** Advance by the golden gamma and return the mixed output. *)

val substream : t -> int -> t
(** [substream g i] is the [i]-th child stream: a fresh generator whose
    state is a mix of [g]'s current state jumped [i + 1] gammas ahead.
    Pure — [g] is not advanced, and the same [(g, i)] always yields the
    same child, whatever order (or domain) the calls happen in.
    Requires [i >= 0].
    @raise Invalid_argument on a negative index. *)

val float01 : t -> float
(** Uniform in [[0, 1)], from the top 53 bits of {!next}. *)

val rand_below : t -> int -> int
(** [rand_below g n] is an integer in [[0, n-1]] via the historical
    [rem]-based draw (negligible modulo bias at the bounds used here).
    Requires [n > 0].
    @raise Invalid_argument on a non-positive bound. *)
