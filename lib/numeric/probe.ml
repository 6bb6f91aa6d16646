type t = {
  mutable sigma_evals : int;
  mutable fmemo_hits : int;
  mutable fmemo_misses : int;
  mutable contrib_hits : int;
  mutable contrib_misses : int;
  mutable dpf_steps : int;
  mutable window_evals : int;
  mutable choose_calls : int;
  mutable iterations : int;
  mutable anneal_accepted : int;
  mutable anneal_rejected : int;
  mutable anneal_noops : int;
  mutable delta_swaps : int;
  mutable delta_repoints : int;
  mutable delta_commits : int;
  mutable delta_discards : int;
  mutable delta_terms : int;
  mutable delta_full_evals : int;
  mutable fcache_evictions : int;
  mutable pool_regions : int;
  mutable pool_tasks : int;
  mutable pool_steals : int;
  mutable named : (string * int) list;
}

let zero () =
  { sigma_evals = 0;
    fmemo_hits = 0;
    fmemo_misses = 0;
    contrib_hits = 0;
    contrib_misses = 0;
    dpf_steps = 0;
    window_evals = 0;
    choose_calls = 0;
    iterations = 0;
    anneal_accepted = 0;
    anneal_rejected = 0;
    anneal_noops = 0;
    delta_swaps = 0;
    delta_repoints = 0;
    delta_commits = 0;
    delta_discards = 0;
    delta_terms = 0;
    delta_full_evals = 0;
    fcache_evictions = 0;
    pool_regions = 0;
    pool_tasks = 0;
    pool_steals = 0;
    named = [] }

(* Named counters: a tiny assoc list, because the key population is a
   handful of model names — linear scan beats hashing at that size and
   keeps [zero]/[clear] allocation-free.  Bumps on the hot path go
   through {!bump_named} on the domain-local record. *)
let bump_named c name v =
  let rec go = function
    | [] -> c.named <- (name, v) :: c.named
    | (n, _) :: _ when String.equal n name ->
        c.named <-
          List.map
            (fun (n, old) ->
              if String.equal n name then (n, old + v) else (n, old))
            c.named
    | _ :: rest -> go rest
  in
  go c.named

let named_counts c =
  List.sort (fun (a, _) (b, _) -> String.compare a b) c.named

let add ~into c =
  into.sigma_evals <- into.sigma_evals + c.sigma_evals;
  into.fmemo_hits <- into.fmemo_hits + c.fmemo_hits;
  into.fmemo_misses <- into.fmemo_misses + c.fmemo_misses;
  into.contrib_hits <- into.contrib_hits + c.contrib_hits;
  into.contrib_misses <- into.contrib_misses + c.contrib_misses;
  into.dpf_steps <- into.dpf_steps + c.dpf_steps;
  into.window_evals <- into.window_evals + c.window_evals;
  into.choose_calls <- into.choose_calls + c.choose_calls;
  into.iterations <- into.iterations + c.iterations;
  into.anneal_accepted <- into.anneal_accepted + c.anneal_accepted;
  into.anneal_rejected <- into.anneal_rejected + c.anneal_rejected;
  into.anneal_noops <- into.anneal_noops + c.anneal_noops;
  into.delta_swaps <- into.delta_swaps + c.delta_swaps;
  into.delta_repoints <- into.delta_repoints + c.delta_repoints;
  into.delta_commits <- into.delta_commits + c.delta_commits;
  into.delta_discards <- into.delta_discards + c.delta_discards;
  into.delta_terms <- into.delta_terms + c.delta_terms;
  into.delta_full_evals <- into.delta_full_evals + c.delta_full_evals;
  into.fcache_evictions <- into.fcache_evictions + c.fcache_evictions;
  into.pool_regions <- into.pool_regions + c.pool_regions;
  into.pool_tasks <- into.pool_tasks + c.pool_tasks;
  into.pool_steals <- into.pool_steals + c.pool_steals;
  List.iter (fun (name, v) -> bump_named into name v) c.named

let clear c =
  c.sigma_evals <- 0;
  c.fmemo_hits <- 0;
  c.fmemo_misses <- 0;
  c.contrib_hits <- 0;
  c.contrib_misses <- 0;
  c.dpf_steps <- 0;
  c.window_evals <- 0;
  c.choose_calls <- 0;
  c.iterations <- 0;
  c.anneal_accepted <- 0;
  c.anneal_rejected <- 0;
  c.anneal_noops <- 0;
  c.delta_swaps <- 0;
  c.delta_repoints <- 0;
  c.delta_commits <- 0;
  c.delta_discards <- 0;
  c.delta_terms <- 0;
  c.delta_full_evals <- 0;
  c.fcache_evictions <- 0;
  c.pool_regions <- 0;
  c.pool_tasks <- 0;
  c.pool_steals <- 0;
  c.named <- []

let fields =
  [ ("sigma_evals", fun c -> c.sigma_evals);
    ("fmemo_hits", fun c -> c.fmemo_hits);
    ("fmemo_misses", fun c -> c.fmemo_misses);
    ("contrib_hits", fun c -> c.contrib_hits);
    ("contrib_misses", fun c -> c.contrib_misses);
    ("dpf_steps", fun c -> c.dpf_steps);
    ("window_evals", fun c -> c.window_evals);
    ("choose_calls", fun c -> c.choose_calls);
    ("iterations", fun c -> c.iterations);
    ("anneal_accepted", fun c -> c.anneal_accepted);
    ("anneal_rejected", fun c -> c.anneal_rejected);
    ("anneal_noops", fun c -> c.anneal_noops);
    ("delta_swaps", fun c -> c.delta_swaps);
    ("delta_repoints", fun c -> c.delta_repoints);
    ("delta_commits", fun c -> c.delta_commits);
    ("delta_discards", fun c -> c.delta_discards);
    ("delta_terms", fun c -> c.delta_terms);
    ("delta_full_evals", fun c -> c.delta_full_evals);
    ("fcache_evictions", fun c -> c.fcache_evictions);
    ("pool_regions", fun c -> c.pool_regions);
    ("pool_tasks", fun c -> c.pool_tasks);
    ("pool_steals", fun c -> c.pool_steals) ]

(* Per-domain accumulator.  Bumps are plain mutable-field increments on
   the calling domain's record: no locks, no atomics, nothing shared on
   the hot path. *)
let local_key : t Domain.DLS.key = Domain.DLS.new_key zero

let local () = Domain.DLS.get local_key

(* Counts drained from finished domains.  Integer addition commutes, so
   the merged totals are independent of worker scheduling and join
   order — deterministic for a fixed configuration. *)
let drained_mutex = Mutex.create ()

let drained = zero ()

let drain_local () =
  let c = local () in
  Mutex.lock drained_mutex;
  add ~into:drained c;
  Mutex.unlock drained_mutex;
  clear c

let totals () =
  let out = zero () in
  Mutex.lock drained_mutex;
  add ~into:out drained;
  Mutex.unlock drained_mutex;
  add ~into:out (local ());
  out

let reset () =
  Mutex.lock drained_mutex;
  clear drained;
  Mutex.unlock drained_mutex;
  clear (local ())
