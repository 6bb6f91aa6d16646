(** Open-addressed, float-keyed memo table for the numeric hot paths.

    The [Hashtbl] caches this replaces paid, on every lookup, for a
    freshly allocated tuple key, a polymorphic-hash walk over it, and a
    [find_opt] option — plus a wholesale [Hashtbl.reset] cliff when the
    table filled.  An [Fcache] key is a fixed number of floats hashed on
    their [Int64.bits_of_float] words directly into a flat open-addressed
    table: a lookup touches at most 8 adjacent slots and allocates
    nothing.

    {2 Semantics}

    The table is a {e lossy} memo, not a map: an add may silently evict
    other entries (bounded probing) and entries expire generationally,
    so a find after an add is allowed to miss.  What is guaranteed is
    that a hit returns exactly the value stored by the most recent add
    for that key — for a cache of a pure function that is the only
    property correctness needs.  Keys are compared bit-for-bit on their
    float words ([nan] keys never match anything; do not use them).

    {2 Sizing}

    A table starts at [min cap 2048] slots, where [cap] is the
    [?capacity] given to {!create}, and grows eightfold (never past
    [cap]) when an insert brings it to half full or finds its probe
    window full of live entries.  Growth rehashes the live entries and
    drops none of them in practice, so below its cap a table behaves
    like a map.  The window-full trigger comes first, at 30-45% load:
    linear probing's primary clustering, not the hash.  A cold solve
    stores up to ~1,000 keys per table, which the start size holds without
    growing in most solves.  Only the one-byte stamps are zeroed when a
    table is created or grown; key and value slots stay unwritten until
    an entry lands in them, so a short run touches only the pages its
    entries use.

    {2 Eviction}

    Once a table has reached its cap, entries are stamped with a
    generation.  Every [cap / 2] insertions (counted from creation,
    across growth) the generation advances and the {e older} half of
    the live entries becomes reclaimable in place — newly inserted
    entries overwrite expired slots as they are probed.  Unlike the
    previous [Hashtbl.reset], a full table therefore never drops its
    warm recent half, and no O(capacity) sweep ever runs.  A hit
    refreshes its entry's stamp, so hot keys survive indefinitely. *)

type t

val create : ?label:string -> ?capacity:int -> arity:int -> unit -> t
(** [create ~arity ()] is an empty table whose keys are [arity] floats
    ([1 <= arity <= 8]).  [capacity] (default [65536]) is rounded up to
    a power of two (at least 16) and is the cap: the slot count growth
    stops at.  The table starts at [min cap 2048] slots; the live
    working set is bounded by the cap and generations turn over every
    [cap / 2] insertions.  [label] (default ["anon"]) names the table
    in the {!occupancy} report; per-domain instances of a domain-local
    cache share a label and are aggregated.
    @raise Invalid_argument on a non-positive capacity or an arity
    outside [1..8]. *)

(** {2 Lookups}

    A float passed to or returned from a function of another module is
    boxed (2 minor words each).  Keys and values therefore travel
    through float arrays, and a lookup allocates nothing, hit or
    miss. *)

val key : t -> float array
(** The table's key buffer, [arity] cells, each reset to [nan]: write a
    key here, then call {!find_into} and, on a miss, {!add_from}.  A
    cell left unwritten stays [nan], so the lookup misses.  Any other
    call on the table may overwrite the buffer. *)

val find_into : t -> float array -> int -> bool
(** [find_into t dst i] looks up the key held in [key t].  On a live
    bit-exact match it writes the value to [dst.(i)] and returns
    [true]; otherwise it returns [false] and leaves [dst] alone. *)

val add_from : t -> float array -> int -> unit
(** [add_from t src i] stores [src.(i)] under the key held in [key t],
    inserting or overwriting. *)

val occupancy : unit -> (string * int * int * int) list
(** One [(label, live, capacity, flips)] row per distinct cache label,
    aggregated over every table instance created so far (per-domain
    copies of a domain-local cache merge into one row); [capacity] sums
    the current slot counts.  O(total capacity); report/introspection
    path, not for hot loops.  Flips count generation advances — each
    one expired half a table in place. *)
