(* Persistent executor dealing each parallel region from one cursor.

   Helper domains are long-lived: spawning them per region would cost
   ~100us each time — ruinous for window sweeps and multistarts that
   open many small regions.  Everything the pool runs is flat: one
   independent evaluation per design-point window, multistart trial or
   fleet device range, plus [submit]ted jobs.  A map issued inside a region or job runs inline, and
   [region_lock] admits one region at a time, so there is never more
   than one region to deal from and no work to migrate between
   domains:

   - The running region sits in a single slot.  An atomic cursor
     [next] hands out [grain]-sized chunks in index order; the calling
     domain (slot 0) and every helper that wakes claim chunks with a
     fetch-and-add until the cursor passes [n].  The grain aims at
     [chunk_factor] chunks per slot, so a slot that draws cheap items
     simply claims again while a costly chunk is still running, and a
     cost skew is absorbed without splitting or stealing ranges.
   - Idle helpers sleep on one mutex and condition, which also guard
     the FIFO queue of submitted jobs.  Publishing a region or pushing
     a job happens under that mutex, so a wakeup cannot be lost.
   - Determinism: chunk boundaries depend only on [n] and the helper
     count, results are written at their input index, every item is
     executed exactly once, and exceptions are banked per item and
     re-raised in index order — which domain ran what never shows. *)

type worker_stat = { items : int; chunks : int; jobs : int; busy_s : float }

(* A parallel region: one [map_array]/[for_range] call.  [run_span]
   executes a half-open index range, catching item exceptions into the
   caller's result buffer; [next] is the first unclaimed index;
   [participants] counts helpers checked in (guarded by the executor's
   [mu]), so the caller can wait for their telemetry drains before
   returning. *)
type region = {
  run_span : int -> int -> unit;
  n : int;
  grain : int;
  next : int Atomic.t;
  mutable participants : int;
  t0 : float;
}

type wstat = {
  mutable st_items : int;
  mutable st_chunks : int;
  mutable st_jobs : int;
  mutable st_busy_s : float;
}

type exec = {
  helpers : int;  (* worker domains actually spawned (slots 1..helpers) *)
  mu : Mutex.t;  (* guards [region], [participants], [jobs] and [stop] *)
  work : Condition.t;  (* idle helpers sleep here *)
  joined : Condition.t;  (* a region's caller waits here for checkouts *)
  mutable region : region option;
  jobs : (unit -> unit) Queue.t;
  mutable stop : bool;
  region_lock : Mutex.t;  (* serializes map regions across domains *)
  stats : wstat array;
  mutable domains : unit Domain.t list;
}

type state = Idle | Running of exec | Dead

type t = { requested : int; lock : Mutex.t; mutable state : state }

let sequential = { requested = 1; lock = Mutex.create (); state = Dead }

let create size =
  if size < 1 then invalid_arg "Pool.create: size < 1";
  { requested = size; lock = Mutex.create (); state = Idle }

let recommended () = Domain.recommended_domain_count ()

let create_recommended () = create (recommended ())

let size t = t.requested

(* Set while a domain is executing region work or a submitted job, so
   nested [map] calls degrade to the sequential path instead of
   oversubscribing the machine (and so the worker-count arithmetic
   stays deterministic). *)
let inside_region : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* Which worker slot this domain occupies within the current region;
   0 outside any region (the calling domain doubles as worker 0).
   Observability only — telemetry tags records with it. *)
let current_worker : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

let worker_index () = Domain.DLS.get current_worker

(* Test-only: an injected delay run before each chunk, to dilate chunk
   execution enough that helpers reliably interleave even on few
   cores. *)
let task_delay : (unit -> unit) option ref = ref None

let set_task_delay d = task_delay := d

(* Helper domains alive across all pools of the process, kept well
   under the runtime's ~128-domain ceiling.  A pool that cannot get
   its full complement spawns fewer helpers (possibly none) and stays
   correct — regions just fan out less. *)
let max_helper_domains = 96

let helper_budget = Atomic.make max_helper_domains

let rec take_budget want =
  if want <= 0 then 0
  else
    let avail = Atomic.get helper_budget in
    if avail <= 0 then 0
    else
      let take = Stdlib.min want avail in
      if Atomic.compare_and_set helper_budget avail (avail - take) then take
      else take_budget want

let now () = Unix.gettimeofday ()

(* Enter and leave a region or job on slot [w]; leaving drains this
   domain's Probe counters and Histogram shard. *)
let enter w =
  Domain.DLS.set inside_region true;
  Domain.DLS.set current_worker w

let leave () =
  Probe.drain_local ();
  Histogram.drain_local ();
  Domain.DLS.set current_worker 0;
  Domain.DLS.set inside_region false

(* Claim and run chunks from the cursor until it passes [n]; returns
   the wall time spent running them.  Chunks run by helpers count into
   [Probe.pool_steals]. *)
let run_chunks ex w r =
  let st = ex.stats.(w) in
  let busy = ref 0.0 in
  let rec claim () =
    let lo = Atomic.fetch_and_add r.next r.grain in
    if lo < r.n then begin
      let hi = Stdlib.min r.n (lo + r.grain) in
      (match !task_delay with Some d -> d () | None -> ());
      let t1 = now () in
      r.run_span lo hi;
      let dt = now () -. t1 in
      st.st_chunks <- st.st_chunks + 1;
      st.st_items <- st.st_items + (hi - lo);
      st.st_busy_s <- st.st_busy_s +. dt;
      busy := !busy +. dt;
      if w > 0 then begin
        let p = Probe.local () in
        p.Probe.pool_steals <- p.Probe.pool_steals + 1
      end;
      claim ()
    end
  in
  claim ();
  !busy

let observe_occupancy r busy =
  if !Histogram.observing then begin
    let wall = now () -. r.t0 in
    if wall > 0.0 then
      Histogram.observe "pool/occupancy" (Float.min 1.0 (busy /. wall))
  end

(* ------------------------------------------------------------------ *)
(* Helper domains                                                      *)

let helper_loop ex w =
  let join r =
    enter w;
    observe_occupancy r (run_chunks ex w r);
    leave ()
  in
  let run_job job =
    let st = ex.stats.(w) in
    st.st_jobs <- st.st_jobs + 1;
    enter w;
    let t1 = now () in
    (* jobs own their exceptions (see the .mli); anything escaping is
       dropped rather than tearing the helper down *)
    (try job () with _ -> ());
    st.st_busy_s <- st.st_busy_s +. (now () -. t1);
    leave ()
  in
  (* a region with unclaimed chunks comes first: its caller is
     blocked on it, while a job's submitter is not *)
  Mutex.lock ex.mu;
  while not ex.stop do
    match ex.region with
    | Some r when Atomic.get r.next < r.n ->
        r.participants <- r.participants + 1;
        Mutex.unlock ex.mu;
        join r;
        Mutex.lock ex.mu;
        r.participants <- r.participants - 1;
        if r.participants = 0 then Condition.signal ex.joined
    | _ when not (Queue.is_empty ex.jobs) ->
        let job = Queue.pop ex.jobs in
        Mutex.unlock ex.mu;
        run_job job;
        Mutex.lock ex.mu
    | _ -> Condition.wait ex.work ex.mu
  done;
  Mutex.unlock ex.mu

let make_exec pool helpers =
  let ex =
    { helpers;
      mu = Mutex.create ();
      work = Condition.create ();
      joined = Condition.create ();
      region = None;
      jobs = Queue.create ();
      stop = false;
      region_lock = Mutex.create ();
      stats =
        Array.init pool.requested (fun _ ->
            { st_items = 0; st_chunks = 0; st_jobs = 0; st_busy_s = 0.0 });
      domains = [] }
  in
  ex.domains <-
    List.init helpers (fun k ->
        Domain.spawn (fun () -> helper_loop ex (k + 1)));
  ex

(* The executor is built on first parallel use, not in [create]: a
   pool value stays cheap to make and store in a config, and purely
   sequential programs never spawn a domain. *)
let ensure_exec pool =
  Mutex.lock pool.lock;
  let r =
    match pool.state with
    | Running ex -> Some ex
    | Dead -> None
    | Idle ->
        let helpers = take_budget (pool.requested - 1) in
        if helpers = 0 then None (* budget exhausted: run sequentially *)
        else begin
          let ex = make_exec pool helpers in
          pool.state <- Running ex;
          Some ex
        end
  in
  Mutex.unlock pool.lock;
  r

let shutdown pool =
  Mutex.lock pool.lock;
  (match pool.state with
  | Dead -> ()
  | Idle -> pool.state <- Dead
  | Running ex ->
      Mutex.lock ex.mu;
      ex.stop <- true;
      Condition.broadcast ex.work;
      Mutex.unlock ex.mu;
      List.iter Domain.join ex.domains;
      ignore (Atomic.fetch_and_add helper_budget ex.helpers);
      pool.state <- Dead);
  Mutex.unlock pool.lock

let with_pool size f =
  let pool = create size in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

let live_workers pool =
  Mutex.lock pool.lock;
  let n = match pool.state with Running ex -> ex.helpers | _ -> 0 in
  Mutex.unlock pool.lock;
  n

let worker_stats pool =
  Mutex.lock pool.lock;
  let stats =
    match pool.state with
    | Running ex ->
        Array.map
          (fun s ->
            { items = s.st_items;
              chunks = s.st_chunks;
              jobs = s.st_jobs;
              busy_s = s.st_busy_s })
          ex.stats
    | _ -> [||]
  in
  Mutex.unlock pool.lock;
  stats

(* ------------------------------------------------------------------ *)
(* Regions                                                             *)

(* How many chunks per slot the grain aims for.  8 keeps scheduling
   overhead negligible while leaving enough chunks in flight for the
   cursor to rebalance a 10x cost skew. *)
let chunk_factor = 8

(* Take the region out of the slot, so no helper joins late, then wait
   until every helper that did join has checked out. *)
let retire ex r =
  Mutex.lock ex.mu;
  ex.region <- None;
  while r.participants > 0 do
    Condition.wait ex.joined ex.mu
  done;
  Mutex.unlock ex.mu

let run_region ex ~n ~run_span =
  Mutex.lock ex.region_lock;
  let r =
    { run_span;
      n;
      grain = Stdlib.max 1 (n / ((ex.helpers + 1) * chunk_factor));
      next = Atomic.make 0;
      participants = 0;
      t0 = now () }
  in
  Fun.protect
    ~finally:(fun () ->
      leave ();
      Mutex.unlock ex.region_lock)
    (fun () ->
      enter 0;
      Mutex.lock ex.mu;
      ex.region <- Some r;
      Condition.broadcast ex.work;
      Mutex.unlock ex.mu;
      let busy =
        Fun.protect ~finally:(fun () -> retire ex r) (fun () ->
            run_chunks ex 0 r)
      in
      observe_occupancy r busy)

let region_map ex f xs n =
  let results = Array.make n None in
  let run_span lo hi =
    for i = lo to hi - 1 do
      results.(i) <- Some (try Ok (f xs.(i)) with e -> Error e)
    done
  in
  run_region ex ~n ~run_span;
  results

(* Surface results in input order; the first stored exception (in
   index order, matching what a sequential map would have hit first)
   is re-raised. *)
let unwrap = function
  | Some (Ok v) -> v
  | Some (Error e) -> raise e
  | None -> assert false

let map_array pool f xs =
  let n = Array.length xs in
  let workers = Stdlib.min pool.requested n in
  let probe = Probe.local () in
  probe.Probe.pool_tasks <- probe.Probe.pool_tasks + n;
  if workers <= 1 || Domain.DLS.get inside_region then Array.map f xs
  else
    match ensure_exec pool with
    | None -> Array.map f xs
    | Some ex ->
        probe.Probe.pool_regions <- probe.Probe.pool_regions + 1;
        Array.map unwrap (region_map ex f xs n)

let map_list pool f xs =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ when pool.requested <= 1 || Domain.DLS.get inside_region ->
      let probe = Probe.local () in
      probe.Probe.pool_tasks <- probe.Probe.pool_tasks + List.length xs;
      (* direct path: no array round-trip; [rev_map] keeps it
         tail-recursive for long lists *)
      List.rev (List.rev_map f xs)
  | _ -> Array.to_list (map_array pool f (Array.of_list xs))

let for_range pool ~n f =
  if n <= 0 then ()
  else begin
    let probe = Probe.local () in
    probe.Probe.pool_tasks <- probe.Probe.pool_tasks + n;
    let workers = Stdlib.min pool.requested n in
    if workers <= 1 || Domain.DLS.get inside_region then f 0 n
    else
      match ensure_exec pool with
      | None -> f 0 n
      | Some ex ->
          probe.Probe.pool_regions <- probe.Probe.pool_regions + 1;
          (* keep the span exception of the smallest start index — the
             first failure a sequential left-to-right sweep would hit *)
          let err_mu = Mutex.create () in
          let err = ref None in
          let run_span lo hi =
            try f lo hi
            with e ->
              Mutex.lock err_mu;
              (match !err with
              | Some (lo0, _) when lo0 <= lo -> ()
              | _ -> err := Some (lo, e));
              Mutex.unlock err_mu
          in
          run_region ex ~n ~run_span;
          (match !err with Some (_, e) -> raise e | None -> ())
  end

let submit pool fn =
  match ensure_exec pool with
  | Some ex ->
      Mutex.lock ex.mu;
      Queue.push fn ex.jobs;
      Condition.signal ex.work;
      Mutex.unlock ex.mu
  | None ->
      (* no helpers: run the job inline, with the same degradation of
         nested parallel regions as on a worker *)
      let saved = Domain.DLS.get inside_region in
      Domain.DLS.set inside_region true;
      Fun.protect
        ~finally:(fun () -> Domain.DLS.set inside_region saved)
        (fun () -> try fn () with _ -> ())
