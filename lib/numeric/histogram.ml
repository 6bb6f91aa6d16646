(* Log-bucketed mergeable histograms (HDR-style).

   Buckets are log-linear: each power-of-two octave of the value range
   is split into [sub_count] equal-width sub-buckets, so the relative
   resolution is uniform (~1/sub_count) across fourteen orders of
   magnitude.  Bucket indices come from [Float.frexp], which is exact
   and branch-free — no logarithms, no search.  Counts are plain ints;
   merging is element-wise addition, so merged results are independent
   of merge order and of which domain recorded what.

   The registry keeps a per-domain shard (no locks on the record path
   beyond one Hashtbl probe); shards merge into the global table when a
   [Pool] worker leaves its region or job, which drains its [Probe]
   counters at the same point, or when a domain takes a {!snapshot}. *)

let sub_count = 16

let min_exp = -64 (* values below 2^-65 collapse into bucket 0 *)

let max_exp = 64 (* values at or above 2^64 collapse into the top bucket *)

let octaves = max_exp - min_exp + 1

let num_buckets = octaves * sub_count

type t = {
  counts : int array;
  mutable count : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
}

let create () =
  { counts = Array.make num_buckets 0;
    count = 0;
    sum = 0.0;
    min_v = Float.infinity;
    max_v = Float.neg_infinity }

(* frexp v = (m, e) with m in [0.5, 1): sub-bucket from the mantissa,
   octave from the exponent.  Non-positive and subnormal-small values
   land in bucket 0, oversized ones in the top bucket — the histogram
   never rejects a sample. *)
let bucket_of v =
  if not (v > 0.0) then 0
  else begin
    let m, e = Float.frexp v in
    if e < min_exp then 0
    else if e > max_exp then num_buckets - 1
    else
      let sub = int_of_float ((m -. 0.5) *. 2.0 *. float_of_int sub_count) in
      let sub = if sub >= sub_count then sub_count - 1 else sub in
      ((e - min_exp) * sub_count) + sub
  end

(* Lower edge of bucket [i]; bucket [i] covers [lower i, lower (i+1)). *)
let bucket_lower i =
  let e = (i / sub_count) + min_exp in
  let sub = i mod sub_count in
  Float.ldexp (0.5 +. (float_of_int sub /. (2.0 *. float_of_int sub_count))) e

let bucket_upper i =
  if i >= num_buckets - 1 then Float.infinity else bucket_lower (i + 1)

(* Representative value: the bucket midpoint.  Within-bucket position
   is unknown, so any quantile is off by at most half a bucket width —
   a relative error under 1/(2*sub_count) ~ 3%. *)
let bucket_mid i = 0.5 *. (bucket_lower i +. bucket_lower (i + 1))

let record h v =
  let i = bucket_of v in
  h.counts.(i) <- h.counts.(i) + 1;
  h.count <- h.count + 1;
  h.sum <- h.sum +. v;
  if v < h.min_v then h.min_v <- v;
  if v > h.max_v then h.max_v <- v

let merge ~into h =
  for i = 0 to num_buckets - 1 do
    into.counts.(i) <- into.counts.(i) + h.counts.(i)
  done;
  into.count <- into.count + h.count;
  into.sum <- into.sum +. h.sum;
  if h.min_v < into.min_v then into.min_v <- h.min_v;
  if h.max_v > into.max_v then into.max_v <- h.max_v

let copy h =
  let c = create () in
  merge ~into:c h;
  c

let count h = h.count

let sum h = h.sum

let max_value h = if h.count = 0 then Float.nan else h.max_v

(* Quantile by cumulative bucket walk, clamped to the exact observed
   extrema so p=0 and p=100 are exact and interior quantiles can never
   leave the sample range. *)
let quantile h p =
  if p < 0.0 || p > 100.0 then invalid_arg "Histogram.quantile: p outside [0,100]";
  if h.count = 0 then Float.nan
  else if p = 0.0 then h.min_v
  else if p = 100.0 then h.max_v
  else begin
    let rank = p /. 100.0 *. float_of_int h.count in
    let target = Stdlib.max 1 (int_of_float (Float.ceil rank)) in
    let i = ref 0 in
    let seen = ref 0 in
    while !seen < target && !i < num_buckets do
      seen := !seen + h.counts.(!i);
      incr i
    done;
    let v = bucket_mid (!i - 1) in
    Float.min h.max_v (Float.max h.min_v v)
  end

let nonzero_buckets h =
  let acc = ref [] in
  for i = num_buckets - 1 downto 0 do
    if h.counts.(i) > 0 then acc := (i, h.counts.(i)) :: !acc
  done;
  !acc

(* --- named registry with per-domain shards --- *)

(* A plain ref, so a disabled observation site costs one load and a
   branch: it only changes between runs, from the main domain. *)
let observing = ref false

let enable () = observing := true

let disable () = observing := false

type shard = (string, t) Hashtbl.t

let shard_key : shard Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let merged : (string, t) Hashtbl.t = Hashtbl.create 16

let merged_mutex = Mutex.create ()

let drain_local () =
  let shard = Domain.DLS.get shard_key in
  if Hashtbl.length shard > 0 then begin
    Mutex.lock merged_mutex;
    Hashtbl.iter
      (fun name h ->
        match Hashtbl.find_opt merged name with
        | Some g -> merge ~into:g h
        | None -> Hashtbl.add merged name (copy h))
      shard;
    Mutex.unlock merged_mutex;
    Hashtbl.reset shard
  end

let observe name v =
  if !observing then begin
    let shard = Domain.DLS.get shard_key in
    let h =
      match Hashtbl.find_opt shard name with
      | Some h -> h
      | None ->
          let h = create () in
          Hashtbl.add shard name h;
          h
    in
    record h v
  end

let snapshot () =
  drain_local ();
  Mutex.lock merged_mutex;
  let out = Hashtbl.fold (fun name h acc -> (name, copy h) :: acc) merged [] in
  Mutex.unlock merged_mutex;
  List.sort (fun (a, _) (b, _) -> String.compare a b) out

let reset () =
  Hashtbl.reset (Domain.DLS.get shard_key);
  Mutex.lock merged_mutex;
  Hashtbl.reset merged;
  Mutex.unlock merged_mutex
