(* Open-addressed float-keyed memo table.  See the .mli for the
   contract; the points that matter for the implementation:

   - Keys live in one flat [float array] ([capacity * arity] cells) so
     a probe reads adjacent unboxed floats; values in a second flat
     array; per-slot generation stamps in a [Bytes.t].  A lookup
     allocates nothing: hashing goes through
     [Int64.to_int (Int64.bits_of_float x)], whose intermediate boxing
     the compiler eliminates, and keys and values travel through float
     arrays ([key], [find_into], [add_from]), never as float arguments
     or results, which a call to another module boxes.

   - Hashing multiplies each key word into an accumulator, which only
     carries entropy upward: the words of round-valued floats (integer
     currents, durations, tails) end in long runs of zero bits, so a
     table indexed by the low bits needs a finalizer that folds the
     high bits back down.  Two xor-shift-multiply rounds on native
     ints do that; [Splitmix.mix64] would too, but its [Int64] argument
     and result stay boxed across the module boundary: 6 more minor
     words per lookup.

   - Linear probing, at most [max_probe] slots.  Slots are never
     emptied (generation stamps only ever advance), so probe chains
     stay valid without tombstones: a lookup stops at a never-used slot
     (stamp 0), skips over expired slots, and otherwise compares keys
     bit-for-bit.

   - Sizing: a table starts at [min cap start_slots] slots and grows
     [growth]-fold, rehashing its live slots with their stamps, when an
     insert brings it to half full or finds its probe window full of
     live entries.  The window-full trigger is what fires first in
     practice, well below half load: that is linear probing's primary
     clustering (runs of occupied slots merge and grow faster than the
     load), not a weak hash — with an ideal random hash an 8-slot
     window in a 1,024-slot table fills at a median of ~440 keys.  A
     cold solve stores up to ~1,000 keys per table, so tables start at
     2,048 slots, where most solves never fill a window.

   - Nothing is written before it is used: the key and value arrays are
     created uninitialized ([Array.create_float]), and only the stamps
     are zeroed, since a zero stamp is what marks a slot empty.  A large
     table is therefore nearly free until it fills: its untouched pages
     are never faulted in, so small solves do not pay for the larger
     start size.

   - Generations, at the cap only: a slot is live while its stamp is
     the current or the previous generation.  Every [cap / 2]
     insertions the current stamp advances, expiring the older
     half-table in place — the replacement for the old [Hashtbl.reset]
     cliff.  The insertion count runs across growth, so the first flip
     still comes after exactly [cap / 2] insertions.  Stamps cycle
     through 1..255; a stamp that wraps around onto a live value can at
     worst resurrect a stale entry of the *same key*, which for a memo
     of a pure function is still the correct value. *)

type t = {
  label : string;
  arity : int;
  cap : int;                (* slot count growth stops at; a power of two *)
  mutable mask : int;       (* capacity - 1; capacity is a power of two *)
  mutable keys : float array;   (* capacity * arity *)
  mutable values : float array; (* capacity *)
  mutable stamps : Bytes.t; (* 0 = never used, else generation stamp *)
  scratch : float array;    (* arity; the key being looked up / added *)
  mutable current : int;    (* live generation stamp, cycles in 1..255 *)
  mutable previous : int;   (* the other live stamp (0 before first flip) *)
  mutable fresh : int;      (* insertions since the last flip *)
  mutable flips : int;      (* total generation advances, for tests *)
}

let max_probe = 8

let default_capacity = 1 lsl 16

let start_slots = 2048

(* x8, not x2: a table filling towards the cap rehashes twice instead
   of six times, and the page faults of the discarded sizes stay small *)
let growth = 8

(* Registry of every live table, for the occupancy lines of the --stats
   report.  Domain-local caches register one instance per domain that
   touched them (the report aggregates by label).  Registration happens
   once per table at [create] — never on the lookup path. *)
let registry_mutex = Mutex.create ()

let registry : t list ref = ref []

let create ?(label = "anon") ?(capacity = default_capacity) ~arity () =
  if arity < 1 || arity > 8 then invalid_arg "Fcache.create: arity not in 1..8";
  if capacity < 1 then invalid_arg "Fcache.create: capacity < 1";
  let cap = ref 1 in
  while !cap < capacity || !cap < 2 * max_probe do
    cap := !cap * 2
  done;
  let cap = !cap in
  let size = min cap start_slots in
  let t =
    { label;
      arity;
      cap;
      mask = size - 1;
      keys = Array.create_float (size * arity);
      values = Array.create_float size;
      stamps = Bytes.make size '\000';
      scratch = Array.make arity 0.0;
      current = 1;
      previous = 0;
      fresh = 0;
      flips = 0 }
  in
  Mutex.lock registry_mutex;
  registry := t :: !registry;
  Mutex.unlock registry_mutex;
  t

let capacity t = t.mask + 1

let arity t = t.arity

let generation t = t.flips + 1

let clear t =
  Bytes.fill t.stamps 0 (Bytes.length t.stamps) '\000';
  t.current <- 1;
  t.previous <- 0;
  t.fresh <- 0;
  t.flips <- 0

(* SplitMix64-flavoured mixing over the raw float words ([to_int]
   drops the top bit — irrelevant for a hash), then two xor-shift-
   multiply rounds that fold the high bits into the slot bits the mask
   keeps (see the header for why this is not [Splitmix.mix64]). *)
let[@inline] hash_words keys base arity =
  let h = ref 0x27d4eb2f165667c5 in
  for i = 0 to arity - 1 do
    let w = Int64.to_int (Int64.bits_of_float keys.(base + i)) in
    h := (!h lxor w) * 0x2545F4914F6CDD1D
  done;
  let h = !h in
  let h = (h lxor (h lsr 32)) * 0x2545F4914F6CDD1D in
  let h = (h lxor (h lsr 29)) * 0x14D049BB133111EB in
  h lxor (h lsr 32)

let[@inline] hash t = hash_words t.scratch 0 t.arity

let[@inline] live t stamp = stamp = t.current || stamp = t.previous

(* Bit-for-bit key equality.  Float [=] alone would conflate -0.0 and
   0.0 (different words, so possibly different hash slots — a key could
   then occupy two slots with diverging values); the word comparison
   only runs in the both-zero case, keeping the common path free of
   [Int64] boxing.  NaN keys never match themselves and so always
   miss — callers must not use NaN key components. *)
let[@inline] fbits_equal a b =
  a = b && (a <> 0.0 || Int64.bits_of_float a = Int64.bits_of_float b)

(* The lookup loops are top-level functions, not local closures:
   without flambda a local recursive function that captures [t] is
   allocated on every call. *)
let rec keys_eq t base i =
  i >= t.arity
  || (fbits_equal (t.keys.(base + i) : float) t.scratch.(i)
     && keys_eq t base (i + 1))

let[@inline] keys_match t slot = keys_eq t (slot * t.arity) 0

(* Find the scratch key: its slot on a live bit-exact match, -1 else. *)
let rec find_slot t h i =
  if i >= max_probe then -1
  else begin
    let slot = (h + i) land t.mask in
    let stamp = Char.code (Bytes.unsafe_get t.stamps slot) in
    if stamp = 0 then -1
    else if live t stamp && keys_match t slot then begin
      (* refresh: a hot key survives generation turnover *)
      if stamp <> t.current then
        Bytes.unsafe_set t.stamps slot (Char.unsafe_chr t.current);
      slot
    end
    else find_slot t h (i + 1)
  end

(* Filled with nan, which no key matches: a caller that writes fewer
   than [arity] cells misses instead of reading the last lookup's
   trailing cells as its own. *)
let key t =
  for i = 0 to t.arity - 1 do
    t.scratch.(i) <- Float.nan
  done;
  t.scratch

let find_into t dst i =
  let slot = find_slot t (hash t) 0 in
  if slot < 0 then false
  else begin
    dst.(i) <- t.values.(slot);
    true
  end

let advance_generation t =
  t.previous <- t.current;
  t.current <- (if t.current >= 255 then 1 else t.current + 1);
  t.fresh <- 0;
  t.flips <- t.flips + 1;
  (* one flip expires half a table in place — the eviction event the
     occupancy/hit-rate analysis wants to see counted *)
  let probe = Probe.local () in
  probe.Probe.fcache_evictions <- probe.Probe.fcache_evictions + 1

(* Rehash every live slot, stamp and all, into a table [growth] times
   larger (at most [cap]).  The new table is at most a sixteenth full
   (a quarter when the cap cuts the step short), so a full probe
   window is rare; an entry that meets one is dropped, as the memo
   contract allows.  Introspection on other domains reads only
   [stamps], so it sees the old table or the new one, never a mix. *)
let grow t =
  let arity = t.arity and old_stamps = t.stamps in
  let size = min t.cap (growth * Bytes.length old_stamps) in
  let mask = size - 1 in
  let keys = Array.create_float (size * arity) in
  let values = Array.create_float size in
  let stamps = Bytes.make size '\000' in
  for old = 0 to Bytes.length old_stamps - 1 do
    let stamp = Bytes.unsafe_get old_stamps old in
    if stamp <> '\000' && live t (Char.code stamp) then begin
      let base = old * arity in
      let h = hash_words t.keys base arity in
      (* a loop, not a local recursive function: that would build a
         closure per live slot *)
      let i = ref 0 in
      while !i < max_probe do
        let slot = (h + !i) land mask in
        if Bytes.unsafe_get stamps slot = '\000' then begin
          Array.blit t.keys base keys (slot * arity) arity;
          values.(slot) <- t.values.(old);
          Bytes.unsafe_set stamps slot stamp;
          i := max_probe
        end
        else incr i
      done
    end
  done;
  t.keys <- keys;
  t.values <- values;
  t.mask <- mask;
  t.stamps <- stamps

(* The value comes from [src.(j)] rather than a float argument, which
   would be boxed at every call. *)
let store t slot src j =
  let base = slot * t.arity in
  Array.blit t.scratch 0 t.keys base t.arity;
  t.values.(slot) <- src.(j);
  Bytes.unsafe_set t.stamps slot (Char.unsafe_chr t.current);
  t.fresh <- t.fresh + 1;
  (* below the cap no generation has flipped, so [fresh] counts the
     stored entries and this is the half-full trigger *)
  if 2 * t.fresh >= capacity t then
    if capacity t < t.cap then grow t else advance_generation t

(* Probe-length distribution, recorded on the insert path only.  The
   lookup path is far too hot to instrument (it runs per contribution
   lookup); inserts happen once per genuine miss, where one guarded
   observe call is noise. *)
let[@inline] observe_probe_len i =
  if !Histogram.observing then
    Histogram.observe "fcache/probe_len" (float_of_int i)

(* Insert the scratch key with value [src.(j)].  [add_probe] is a
   top-level function, like the lookup loop, so an insert builds no
   closure. *)
let rec add_probe t h src j i victim =
  if i >= max_probe then
    if victim < 0 && capacity t < t.cap then begin
      (* window full of live strangers below the cap: make room *)
      grow t;
      add_from t src j
    end
    else begin
      (* reuse an expired slot or, at the cap, overwrite the last *)
      observe_probe_len max_probe;
      let last = (h + max_probe - 1) land t.mask in
      store t (if victim >= 0 then victim else last) src j
    end
  else begin
    let slot = (h + i) land t.mask in
    let stamp = Char.code (Bytes.unsafe_get t.stamps slot) in
    if stamp = 0 then begin
      (* never-used slot: no live duplicate can sit beyond it *)
      observe_probe_len (i + 1);
      store t (if victim >= 0 then victim else slot) src j
    end
    else if live t stamp then
      if keys_match t slot then begin
        t.values.(slot) <- src.(j);
        if stamp <> t.current then
          Bytes.unsafe_set t.stamps slot (Char.unsafe_chr t.current)
      end
      else add_probe t h src j (i + 1) victim
    else add_probe t h src j (i + 1) (if victim >= 0 then victim else slot)
  end

and add_from t src j = add_probe t (hash t) src j 0 (-1)

(* Introspection may run on another domain while the owner grows the
   table, so it reads [stamps] once and sizes everything from that
   array, never from [mask]. *)
let live_in t stamps =
  let n = ref 0 in
  for slot = 0 to Bytes.length stamps - 1 do
    let stamp = Char.code (Bytes.get stamps slot) in
    if stamp <> 0 && live t stamp then incr n
  done;
  !n

let live_count t = live_in t t.stamps

let label t = t.label

(* Aggregate (live, capacity, flips) per label across every registered
   instance — one row per distinct cache, merging the per-domain copies
   of a domain-local table.  O(total capacity); report path only. *)
let occupancy () =
  Mutex.lock registry_mutex;
  let tables = !registry in
  Mutex.unlock registry_mutex;
  let rows = ref [] in
  List.iter
    (fun t ->
      let stamps = t.stamps in
      let live = live_in t stamps and cap = Bytes.length stamps in
      match List.assoc_opt t.label !rows with
      | Some (l, c, f) ->
          rows :=
            (t.label, (l + live, c + cap, f + t.flips))
            :: List.remove_assoc t.label !rows
      | None -> rows := (t.label, (live, cap, t.flips)) :: !rows)
    tables;
  List.sort compare
    (List.map (fun (name, (l, c, f)) -> (name, l, c, f)) !rows)
