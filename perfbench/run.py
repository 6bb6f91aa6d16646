#!/usr/bin/env python3
"""The repo benchmark.

    python3 perfbench/run.py --workload solve|fleet --seed N \\
        --seconds S --trace 0|1

Run from the repository root.  It builds the binaries and the in-process
helper (perfbench/pbtool.ml) with dune, writes the inputs from --seed,
and prints one JSON line last: {"correct", "attempted", "failed",
"metrics"}.  --trace 0 drives the shipped binaries from outside on the
workload for --seconds, checks every output, and reports the end-to-end
metrics.  --trace 1 replays the ops of all three workloads (solve, serve
and fleet) in-process with spans around each library layer and reports
the per-layer metrics, so every per-layer metric is measured in every
traced run.
perfbench/README.md says what each workload and metric means.
"""

import argparse
import json
import math
import os
import re
import selectors
import shutil
import subprocess
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchlib as bl  # noqa: E402

ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".perfbench_work")
BUILD = os.path.join(ROOT, "_build", "default")
BASCHED = os.path.join(BUILD, "bin", "basched.exe")
BATTSIM = os.path.join(BUILD, "bin", "battsim.exe")
PBTOOL = os.path.join(BUILD, "perfbench", "pbtool.exe")
NPROC = len(os.sched_getaffinity(0))
SOURCES = ["dune-project", "bin/basched.ml", "bin/battsim.ml", "lib",
           "perfbench/pbtool.ml", "test/fleet_spec.json",
           "examples/data/g2.tgff", "examples/data/g3.tgff",
           "examples/data/g2.btg", "examples/data/g3.btg"]

# Paper instances and their published sigma (mA*min).
PAPER = [("examples/data/g2.tgff", "75", "13758.1"),
         ("examples/data/g3.tgff", "230", "14068.7")]

SETUP_REPS = 15       # set-ups per run; setup_s is their median
SETUP_WARM = 5        # set-ups run first and discarded: cold starts
                      # right after an idle spell run up to 2x slower
MIN_SAMPLES = 100     # p90 needs 10 samples beyond it

# solve: cold `basched FILE -d D`, one client, closed loop
SOLVE_GRAPHS = 120               # distinct generated graphs per seed
SOLVE_SIZES = (16, 128)          # task count, drawn evenly over the range
SLACKS = (0.15, 0.3, 0.45, 0.6)  # deadline = fast + slack * (slow - fast)
PAPER_EVERY = 10                 # every 10th op is G2/75 or G3/230
SOLVE_TRACE_OPS = 100

# serve (traced run only): one `basched serve`, open loop at a fixed
# rate, then in-process replays of the same traffic
SERVE_POOL = NPROC + 1     # pool slot 0 reads stdin; slots 1.. run jobs
SERVE_RATE = 40.0          # req/s, ~1/9 of the daemon's saturation rate
SERVE_PACED_S = 5.0
HEAVY_SHARE = 2            # of every 5 requests, 2 are paper-scale
HEAVY_SIZES = (12, 40)
ANNEAL_STEPS = (5, 30)
SERVE_TRACE_OPS = 400

# fleet: cold `battsim fleet` jobs of 10k devices, closed loop.  The
# jobs run on one domain: a two-domain job stalls at every minor-GC
# barrier while either vCPU is taken, so one competing busy process
# took it from 73 to 186 ms (p50) where a one-domain job stayed at
# ~142 ms.  The traced run still measures the pool at nproc domains.
FLEET_SPEC = "test/fleet_spec.json"
FLEET_DEVICES = 10000
FLEET_POOL = 1
FLEET_PINNED = (2026, "sv1-9153c50449032e8b")  # the CI fleet checksum
FLEET_TRACE_JOBS = 10

UNITS = {"ops_per_s": "1/s", "p50_ms": "ms", "p90_ms": "ms",
         "cpu_ms_per_op": "ms", "sigma_ratio": "ratio", "setup_s": "s",
         "peak_rss_mb": "MB"}

# Per-layer metrics of each workload's traced replay.  A name measured
# on more than one workload gets the workload as a suffix
# (core.search_ms.solve, core.search_ms.serve).
COMMON_LAYERS = [
    ("runtime.minor_words_per_op", "words"),
    ("runtime.major_gcs_per_op", "count"),
    ("trace.wall_ms", "ms"), ("trace.unattributed_ms", "ms"),
    ("trace.attributed_pct", "%"), ("bench.tracing_overhead_pct", "%")]
LAYERS = {
    "solve": [
        ("bin.process_ms", "ms"), ("bin.render_ms", "ms"),
        ("taskgraph.parse_ms", "ms"), ("core.search_ms", "ms"),
        ("core.window_ms", "ms"), ("core.choose_ms", "ms"),
        ("core.iterations", "count"), ("core.window_evals", "count"),
        ("core.choose_calls", "count"), ("core.dpf_steps", "count"),
        ("battery.sigma_evals", "count"), ("sched.materialize_ms", "ms"),
        ("runtime.first_call_extra_ms", "ms"),
        ("numeric.contrib_hit_ratio", "ratio"),
        ("numeric.fmemo_hit_ratio", "ratio"),
        ("numeric.fcache_evictions", "count")] + COMMON_LAYERS,
    "serve": [
        ("serve.paced_p50_ms", "ms"), ("serve.paced_p90_ms", "ms"),
        ("serve.sigma_ratio", "ratio"),
        ("serve.parse_ms", "ms"), ("serve.queue_ms.p50", "ms"),
        ("serve.queue_ms.p90", "ms"), ("baselines.annealing_ms", "ms"),
        ("baselines.random_ms", "ms"), ("core.search_ms", "ms"),
        ("core.window_ms", "ms"), ("core.choose_ms", "ms"),
        ("sched.materialize_ms", "ms"), ("battery.sigma_evals", "count"),
        ("baselines.anneal_accept_ratio", "ratio"),
        ("battery.delta_moves", "count"),
        ("battery.delta_commit_ratio", "ratio"),
        ("battery.delta_full_evals", "count"),
        ("numeric.contrib_hit_ratio", "ratio"),
        ("numeric.fmemo_hit_ratio", "ratio"),
        ("numeric.fcache_evictions", "count"),
        ("obs.records_per_op", "count"), ("obs.bytes_per_op", "bytes"),
        ("obs.serialize_ms", "ms"), ("obs.emit_ms", "ms"),
        ("numeric.pool_busy_frac.0", "frac"),
        ("numeric.pool_busy_frac.1", "frac"),
        ("numeric.pool_busy_frac.2", "frac"),
        ("numeric.pool_steals", "count"), ("numeric.pool_regions", "count"),
        ("bench.generator_late_ms.p90", "ms")] + COMMON_LAYERS,
    "fleet": [
        ("bin.process_ms", "ms"), ("fleet.spec_parse_ms", "ms"),
        ("fleet.sample_us_per_device", "us"),
        ("battery.periodic_us_per_device", "us"),
        ("battery.periodic_us_per_device.ideal", "us"),
        ("battery.periodic_us_per_device.peukert", "us"),
        ("battery.periodic_us_per_device.rakhmatov", "us"),
        ("battery.periodic_us_per_device.kibam", "us"),
        ("battery.periodic_us_per_device.pde", "us"),
        ("fleet.survival_us_per_device", "us"),
        ("fleet.engine_unattributed_ms", "ms"),
        ("fleet.deaths", "count"), ("fleet.censored", "count"),
        ("numeric.pool_busy_frac.0", "frac"),
        ("numeric.pool_busy_frac.1", "frac"),
        ("numeric.pool_steals", "count"),
        ("numeric.pool_regions", "count")] + COMMON_LAYERS,
}
WORKLOADS = list(LAYERS)
_SEEN = [n for w in WORKLOADS for n, _ in LAYERS[w]]
SHARED = {n for n in _SEEN if _SEEN.count(n) > 1}


def layer_name(workload, name):
    return f"{name}.{workload}" if name in SHARED else name


PER_LAYER = [(layer_name(w, n), u) for w in WORKLOADS for n, u in LAYERS[w]]
PER_LAYER.append(("host.steal_frac", "frac"))

# Sink span name -> layer.  Spans inside Iterate other than window and
# choose ("iteration", "screen", "start") are the search loop's own time.
LAYER_OF = {"window": "core.window", "choose": "core.choose",
            "iteration": "core.search", "screen": "core.search",
            "start": "core.search"}


class BenchError(Exception):
    pass


def info(msg):
    print(msg, flush=True)


def now():
    return time.perf_counter()


# --- host -----------------------------------------------------------------

def cpu_times():
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:9]]
    return fields[7], sum(fields)  # steal, user..steal


class Steal:
    """Share of the host's CPU time stolen by the hypervisor meanwhile."""

    def __init__(self):
        self.s0, self.t0 = cpu_times()

    def frac(self):
        s1, t1 = cpu_times()
        return (s1 - self.s0) / max(1, t1 - self.t0)


def proc_cpu_s(pid):
    with open(f"/proc/{pid}/stat") as f:
        rest = f.read().rsplit(")", 1)[1].split()
    return (int(rest[11]) + int(rest[12])) / os.sysconf("SC_CLK_TCK")


# --- processes --------------------------------------------------------------

def run_cold(argv, timeout=60.0):
    """Spawn one process and wait for it.  Returns (wall s, exit code,
    output, user+sys CPU s, peak RSS MB)."""
    t0 = now()
    p = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                         stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    try:
        out = p.stdout.read()
        _, status, ru = os.wait4(p.pid, 0)
    except BaseException:
        p.kill()
        p.wait()
        raise
    wall = now() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    p.stdout.close()
    if wall > timeout:
        raise BenchError(f"{argv[0]} took {wall:.1f} s")
    return (wall, p.returncode, out.decode(errors="replace"),
            ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0)


def tool(*args, timeout=120):
    r = subprocess.run([PBTOOL, *map(str, args)], stdin=subprocess.DEVNULL,
                       capture_output=True, text=True, timeout=timeout)
    if r.returncode != 0:
        raise BenchError(f"pbtool {args[0]} failed: {r.stderr.strip()}")
    return r.stdout


def build():
    missing = [s for s in SOURCES if not os.path.exists(os.path.join(ROOT, s))]
    if missing:
        raise BenchError("not a batsched checkout (missing "
                         + ", ".join(missing) + ")")
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(["dune", "build", "--root", ".", "bin/basched.exe",
                        "bin/battsim.exe", "perfbench/pbtool.exe"],
                       env=env, stdin=subprocess.DEVNULL,
                       capture_output=True, text=True, timeout=850)
    if r.returncode != 0:
        raise BenchError("build failed:\n" + r.stderr[-2000:])


def median_setup(argv_fn):
    for k in range(SETUP_WARM):
        run_cold(argv_fn(k))
    walls, rss = [], []
    for k in range(SETUP_REPS):
        wall, code, out, _, mb = run_cold(argv_fn(k))
        if code != 0:
            raise BenchError(f"set-up run failed: {out[-300:]}")
        walls.append(wall)
        rss.append(mb)
    return bl.median(walls), max(rss)


def timed_loop(seconds, op):
    """Closed loop: call op(i) until `seconds` have passed and at least
    MIN_SAMPLES ops are done (capped at 3x the time)."""
    t0 = now()
    i = 0
    while True:
        el = now() - t0
        if el >= seconds and i >= MIN_SAMPLES:
            break
        if el >= 3 * seconds and i > 0:
            break
        op(i)
        i += 1
    return now() - t0, i


def closed_loop_metrics(n, elapsed, walls, cpus, rss):
    ms = [w * 1000.0 for w in walls]
    info(f"p90 over {n} samples")
    return {"ops_per_s": n / elapsed, "p50_ms": bl.median(ms),
            "p90_ms": bl.percentile(ms, 90),
            "cpu_ms_per_op": 1000.0 * sum(cpus) / n,
            "peak_rss_mb": max(rss)}


# --- solve ----------------------------------------------------------------

def solve_inputs(seed, wdir):
    rng = bl.new_rng(seed, "solve")
    graphs, texts = [], []
    for j, n in enumerate(bl.stratified_sizes(rng, SOLVE_GRAPHS,
                                              *SOLVE_SIZES)):
        text, fast, slow = bl.fork_join_graph(rng, n, f"fj{j}")
        path = os.path.join(wdir, f"g{j}.btg")
        with open(path, "w") as f:
            f.write(text)
        slack = SLACKS[j % len(SLACKS)]
        graphs.append((path, f"{fast + slack * (slow - fast):.2f}"))
        texts.append(text)
    ops = []
    order = []
    while len(ops) < 20 * SOLVE_GRAPHS:
        if not order:
            order = list(range(SOLVE_GRAPHS))
            rng.shuffle(order)
        if len(ops) % PAPER_EVERY == PAPER_EVERY - 1:
            p = PAPER[(len(ops) // PAPER_EVERY) % 2]
            ops.append((os.path.join(ROOT, p[0]), p[1]))
        else:
            ops.append(graphs[order.pop()])
    dig = bl.digest(texts + [f"{os.path.basename(p)} {d}" for p, d in ops])
    info(f"inputs solve seed {seed} digest {dig}")
    return ops


def parse_solve(out):
    fields = {}
    for line in out.splitlines():
        for key in ("schedule:", "finish:", "sigma:"):
            if line.startswith(key):
                fields[key[:-1]] = line[len(key):].split()
    if len(fields) != 3:
        return None
    return (" ".join(fields["schedule"]), fields["finish"][0],
            fields["sigma"][0])


def check_solve(ops, outs, wdir):
    """Returns (per-op ok flags, sigma ratios of the good ops)."""
    parsed = [parse_solve(o) for o in outs]
    keys = list(dict.fromkeys((path, d, *res)
                              for (path, d), res in zip(ops, parsed)
                              if res is not None))
    rows_path = os.path.join(wdir, "solve_rows.tsv")
    with open(rows_path, "w") as f:
        f.writelines("\t".join(k) + "\n" for k in keys)
    verdict = {}
    for k, line in zip(keys,
                       tool("check-solve", rows_path, NPROC).splitlines()):
        status, dp, msg = line.split("\t")
        verdict[k] = (status == "ok", float(dp), msg)
    first_out = {}
    ok, ratios = [], []
    for (path, d), res in zip(ops, parsed):
        if res is None:
            ok.append(False)
            continue
        good, dp, msg = verdict[(path, d, *res)]
        rel = os.path.relpath(path, ROOT)
        for p, pd, pinned in PAPER:
            if rel == p and d == pd and res[2] != pinned:
                good, msg = False, f"{p} gave {res[2]}, pinned {pinned}"
        # the heuristic is deterministic: one input, one schedule
        if first_out.setdefault(path, res) != res:
            good, msg = False, "same input, different schedule"
        if not good:
            info(f"check failed: {rel} -d {d}: {msg}")
        ok.append(good)
        if good:
            ratios.append(float(res[2]) / dp)
    return ok, ratios


def solve_run(args, wdir):
    ops = solve_inputs(args.seed, wdir)
    one = os.path.join(wdir, "one.btg")
    with open(one, "w") as f:
        f.write("graph one\ntask A 100:1\n")
    setup_s, setup_rss = median_setup(lambda k: [BASCHED, one, "-d", "2"])
    walls, cpus, rss, outs = [], [], [setup_rss], []

    def op(i):
        path, d = ops[i % len(ops)]
        wall, code, out, cpu, mb = run_cold([BASCHED, path, "-d", d])
        walls.append(wall)
        cpus.append(cpu)
        rss.append(mb)
        outs.append(out if code == 0 else "")

    for path, d in ops[:3]:  # warm the page cache; not measured
        run_cold([BASCHED, path, "-d", d])
    elapsed, n = timed_loop(args.seconds, op)
    ok, ratios = check_solve([ops[i % len(ops)] for i in range(n)], outs,
                             wdir)
    failed = ok.count(False)
    info(f"phase solve: attempted {n} failed {failed}")
    m = closed_loop_metrics(n, elapsed, walls, cpus, rss)
    m.update(sigma_ratio=bl.geomean(ratios), setup_s=setup_s)
    return n, failed, m


def solve_trace(seed, wdir):
    ops = solve_inputs(seed, wdir)[:SOLVE_TRACE_OPS]
    cold, outs = [], []
    for path, d in ops:
        wall, code, out, _, _ = run_cold([BASCHED, path, "-d", d])
        cold.append(wall * 1000.0)
        outs.append(parse_solve(out) if code == 0 else None)
    manifest = os.path.join(wdir, "trace_manifest.tsv")
    with open(manifest, "w") as f:
        f.writelines(f"{p}\t{d}\n" for p, d in ops)
    plain, traced, spans = traced_replays(wdir, "trace-solve", manifest)
    failed = sum(1 for o, s in zip(outs, traced["sigma"])
                 if o is None or o[2] != s)
    n = len(ops)
    m = layer_metrics(plain, traced, spans, n)
    m["bin.process_ms"] = bl.median(
        [c - r for c, r in zip(cold, plain["op_ms"])])
    m["runtime.first_call_extra_ms"] = (plain["first_call_ms"]
                                        - plain["warm_call_ms"])
    return 2 * n, failed, m


# --- serve ----------------------------------------------------------------

def strip_id(line):
    """A wire line without its leading id field."""
    if not line.startswith('{"id":"'):
        raise BenchError("wire line does not start with its id")
    return line[line.index('",', 7) + 2:]


def serve_lines(seed, stream, count, soak):
    """`count` request bodies (wire lines without their id): per block of
    five, HEAVY_SHARE paper-scale requests and the rest Soak traffic.
    The paper-scale knobs are dealt from shuffled decks, so every seed
    gets the same mix of algorithms, graphs, step budgets and sizes."""
    rng = bl.new_rng(seed, stream)
    paper = [(open(os.path.join(ROOT, f"examples/data/g{k}.btg")).read(), d)
             for k, d in ((2, 75), (3, 230))]
    kinds = bl.deck(rng, [(algo, graph)
                          for algo in ("annealing", "iterative-ms")
                          for graph in ("g2", "g3", "fresh", "fresh")])
    steps = bl.deck(rng, range(ANNEAL_STEPS[0], ANNEAL_STEPS[1] + 1))
    sizes = bl.deck(rng, range(HEAVY_SIZES[0], HEAVY_SIZES[1] + 1))
    slacks = bl.deck(rng, SLACKS)

    def heavy():
        algo, graph = next(kinds)
        if graph == "fresh":
            n = next(sizes)
            text, fast, slow = bl.fork_join_graph(rng, n, f"fj{n}")
            deadline = round(fast + next(slacks) * (slow - fast), 2)
        else:
            text, deadline = paper[graph == "g3"]
        req = {"deadline": deadline, "seed": rng.randrange(1 << 20),
               "algo": algo}
        if algo == "annealing":
            req["steps"] = next(steps)
        req["graph"] = text
        return json.dumps(req, separators=(",", ":"))[1:]

    out = []
    while len(out) < count:
        block = [1] * HEAVY_SHARE + [0] * (5 - HEAVY_SHARE)
        rng.shuffle(block)
        for is_heavy in block:
            out.append(heavy() if is_heavy
                       else strip_id(soak[len(out) % len(soak)]))
    return out[:count]


def serve_inputs(seed):
    """The warm-up body, SERVE_TRACE_OPS bodies to replay in-process and
    the paced phase's bodies."""
    soak = tool("soak-lines", 600, seed).splitlines()
    replay = serve_lines(seed, "serve-replay", SERVE_TRACE_OPS, soak)
    pace = serve_lines(seed, "serve-paced",
                       int(SERVE_PACED_S * SERVE_RATE) + 10, soak)
    info(f"inputs serve seed {seed} digest {bl.digest(replay + pace)}")
    return strip_id(soak[0]), replay, pace


# Response records that end a request; run.py parses only these and
# counts the rest (streamed search records) without a Python-level loop.
TERMINAL = re.compile(rb'^\{"kind":"(?:result|overloaded|error|cancelled|'
                      rb'parse_error)".*$', re.M)


class Daemon:
    """A `basched serve` child fed by this single-threaded script; use it in
    a `with` block so that it is killed and reaped on any error."""

    def __init__(self):
        self.t_spawn = now()
        self.p = subprocess.Popen(
            [BASCHED, "serve", "--pool", str(SERVE_POOL)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, bufsize=0)
        self.fin, self.fout = self.p.stdin.fileno(), self.p.stdout.fileno()
        os.set_blocking(self.fin, False)
        os.set_blocking(self.fout, False)
        self.sel = selectors.DefaultSelector()
        self.sel.register(self.fout, selectors.EVENT_READ)
        self.pending = b""
        self.partial = b""
        self.eof = False
        self.lines = self.bytes = 0
        self.done = {}   # id -> (time, kind, result record or None)
        self.open = 0    # requests sent and not yet answered

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.p.returncode is None:
            self.p.kill()
            self.p.wait()
        self.p.stdout.close()
        self.sel.close()

    def send(self, rid, body):
        self.pending += f'{{"id":"{rid}",{body}\n'.encode()
        self.open += 1
        self.flush()

    def flush(self):
        while self.pending:
            try:
                k = os.write(self.fin, self.pending)
            except BlockingIOError:
                return
            self.pending = self.pending[k:]

    def poll(self, timeout):
        """Wait up to `timeout` s for output and take in what arrived."""
        if self.pending:
            self.flush()
        if not self.sel.select(max(0.0, timeout)):
            return
        t = now()
        while True:
            try:
                chunk = os.read(self.fout, 1 << 16)
            except BlockingIOError:
                break
            if not chunk:
                self.eof = True
                break
            self.bytes += len(chunk)
            data = self.partial + chunk
            cut = data.rfind(b"\n") + 1
            self.partial = data[cut:]
            self.lines += data.count(b"\n", 0, cut)
            for m in TERMINAL.finditer(data, 0, cut):
                self.take(t, m.group(0))

    def take(self, t, line):
        if line.startswith(b'{"kind":"result"'):
            rec = json.loads(line)
            self.done[rec["req"]] = (t, "result", rec)
            self.open -= 1
        elif line.startswith((b'{"kind":"overloaded"', b'{"kind":"error"',
                              b'{"kind":"cancelled"')):
            rec = json.loads(line)
            self.done[rec["req"]] = (t, rec["kind"], None)
            self.open -= 1
        elif line.startswith(b'{"kind":"parse_error"'):
            raise BenchError("daemon could not parse a generated line")

    def settle(self, limit=60.0):
        t_end = now() + limit
        while self.open > 0 and now() < t_end:
            self.poll(0.1)

    def warm_up(self, rid, body, limit=30.0):
        """One request; returns seconds from spawn to its result."""
        self.send(rid, body)
        t_end = now() + limit
        while rid not in self.done:
            if now() > t_end or self.eof:
                raise BenchError(f"no answer to {rid}")
            self.poll(0.5)
        return self.done[rid][0] - self.t_spawn

    def close(self, limit=60.0):
        """Close stdin, let the daemon drain and exit; returns peak RSS MB."""
        self.flush()
        self.p.stdin.close()
        t_end = now() + limit
        while not self.eof and now() < t_end:
            self.poll(0.5)
        if not self.eof:
            raise BenchError("daemon did not exit")
        _, status, ru = os.wait4(self.p.pid, 0)
        self.p.returncode = os.waitstatus_to_exitcode(status)
        if self.p.returncode != 0:
            raise BenchError("daemon exited with an error")
        return ru.ru_maxrss / 1024.0


def paced(d, bodies, seconds):
    """Open loop: request i is due at start + i/SERVE_RATE.  Returns ids,
    latencies (ms, inf without a result) and generator lateness (ms)."""
    count = max(1, int(seconds * SERVE_RATE))
    start = now() + 0.05
    sent_at, ids = [], []
    while len(ids) < count:
        due = start + len(ids) / SERVE_RATE
        t = now()
        if t >= due:
            rid = f"p{len(ids)}"
            d.send(rid, bodies[len(ids) % len(bodies)])
            ids.append(rid)
            sent_at.append(now())
            continue
        d.poll(due - t)
    d.settle()
    done = [d.done[r][0] if r in d.done and d.done[r][1] == "result" else None
            for r in ids]
    lat, late = bl.open_loop_latencies(start, SERVE_RATE, sent_at, done)
    return ids, [x * 1000.0 for x in lat], [x * 1000.0 for x in late]


def check_serve(d, ids, bodies_of, wdir):
    """Re-run every answered request single-shot in-process.  Returns
    (failed ids, sigma ratios against Dp_energy)."""
    good = [r for r in ids if r in d.done and d.done[r][1] == "result"]
    failed = [r for r in ids if r not in good]
    reqs = os.path.join(wdir, "served_requests.jsonl")
    res = os.path.join(wdir, "served_results.tsv")
    with open(reqs, "w") as fr, open(res, "w") as fo:
        for r in good:
            rec = d.done[r][2]
            fr.write(f'{{"id":"{r}",{bodies_of(r)}\n')
            fo.write(f'{r}\t{rec["sigma"]!r}\t{rec["finish"]!r}\t'
                     f'{rec["sequence"]}\t{rec["points"]}\n')
    ratios = []
    out = tool("check-serve", reqs, res, NPROC, timeout=150).splitlines()
    for r, line in zip(good, out):
        status, dp, msg = line.split("\t")
        if status != "ok":
            info(f"check failed: {r}: {msg}")
            failed.append(r)
        elif not math.isnan(float(dp)):
            ratios.append(d.done[r][2]["sigma"] / float(dp))
    return failed, ratios


def serve_trace(seed, wdir):
    warm, replay, pace = serve_inputs(seed)
    # the binary, paced: latency, queueing and the response stream
    with Daemon() as d:
        d.warm_up("w-main", warm)
        l0, b0 = d.lines, d.bytes
        ids, lat, late = paced(d, pace, SERVE_PACED_S)
        records, nbytes = d.lines - l0, d.bytes - b0
        d.close()
    failed, ratios = check_serve(d, ids, lambda r: pace[int(r[1:])], wdir)
    info(f"phase paced: attempted {len(ids)} failed {len(failed)}; "
         f"generator late p50 {bl.median(late):.3f} ms")
    # a failed request counts as over any latency limit
    lat = [math.inf if r in failed else x for r, x in zip(ids, lat)]
    queue = [d.done[r][2]["queue_ms"] for r in ids if r not in failed]
    lines = os.path.join(wdir, "trace_requests.jsonl")
    with open(lines, "w") as f:
        f.writelines(f'{{"id":"t{i}",{b}\n' for i, b in enumerate(replay))
    stream = os.path.join(wdir, "trace_stream.jsonl")
    plain, traced, spans = traced_replays(wdir, "trace-serve", lines,
                                          SERVE_POOL, stream)
    n = SERVE_TRACE_OPS
    m = layer_metrics(plain, traced, spans, n)
    m.update({
        "serve.paced_p50_ms": bl.median(lat),
        "serve.paced_p90_ms": bl.percentile(lat, 90),
        "serve.sigma_ratio": bl.geomean(ratios),
        "serve.queue_ms.p50": bl.median(queue),
        "serve.queue_ms.p90": bl.percentile(queue, 90),
        "obs.records_per_op": records / len(ids),
        "obs.bytes_per_op": nbytes / len(ids),
        "obs.serialize_ms": plain["serialize_ms"],
        "bench.generator_late_ms.p90": bl.percentile(late, 90),
        "numeric.pool_steals": plain["pool_steals"] / n,
        "numeric.pool_regions": plain["pool_regions"] / n})
    for slot, v in enumerate(plain["busy_frac"]):
        m[f"numeric.pool_busy_frac.{slot}"] = v
    return (len(ids) + 2 * n,
            len(failed) + plain["failed"] + traced["failed"], m)


# --- fleet ----------------------------------------------------------------

def fleet_seeds(seed):
    rng = bl.new_rng(seed, "fleet")
    seeds = [FLEET_PINNED[0]] + [rng.randrange(1, 1 << 30) for _ in range(4000)]
    with open(os.path.join(ROOT, FLEET_SPEC)) as f:
        dig = bl.digest([f.read()] + [str(s) for s in seeds])
    info(f"inputs fleet seed {seed} digest {dig}")
    return seeds


def fleet_argv(seed, devices=FLEET_DEVICES):
    return [BATTSIM, "fleet", "--spec", FLEET_SPEC, "--devices",
            str(devices), "--pool", str(FLEET_POOL), "--seed", str(seed)]


def fleet_checksum(out):
    for line in out.splitlines():
        if line.strip().startswith("checksum "):
            return line.split()[1]
    return None


def fleet_run(args, wdir):
    seeds = fleet_seeds(args.seed)
    setup_s, setup_rss = median_setup(lambda k: fleet_argv(k + 1, devices=1))
    walls, cpus, rss, sums = [], [], [setup_rss], []

    def op(i):
        wall, code, out, cpu, mb = run_cold(fleet_argv(seeds[i]))
        walls.append(wall)
        cpus.append(cpu)
        rss.append(mb)
        sums.append(fleet_checksum(out) if code == 0 else None)

    run_cold(fleet_argv(seeds[-1]))  # warm the page cache; not measured
    elapsed, n = timed_loop(args.seconds, op)
    ref = dict(line.split("\t") for line in tool(
        "check-fleet", FLEET_SPEC, FLEET_DEVICES, NPROC, *seeds[:n],
        timeout=170).splitlines())
    failed = 0
    for s, c in zip(seeds, sums):
        if c is None or c != ref[str(s)] or (s == FLEET_PINNED[0]
                                             and c != FLEET_PINNED[1]):
            info(f"check failed: fleet seed {s}: {c} vs {ref[str(s)]}")
            failed += 1
    info(f"phase fleet: attempted {n} failed {failed}")
    m = closed_loop_metrics(n, elapsed, walls, cpus, rss)
    # fleet runs no search: there is no schedule sigma to compare
    m.update(sigma_ratio=1.0, setup_s=setup_s)
    return n, failed, m


def fleet_trace(seed, wdir):
    seeds = fleet_seeds(seed)[:FLEET_TRACE_JOBS]
    cold, sums = [], []
    for s in seeds:
        wall, code, out, _, _ = run_cold(fleet_argv(s))
        cold.append(wall * 1000.0)
        sums.append(fleet_checksum(out) if code == 0 else None)
    plain, traced, spans = traced_replays(wdir, "trace-fleet", FLEET_SPEC,
                                          FLEET_DEVICES, FLEET_POOL, NPROC,
                                          *seeds)
    jobs = len(seeds)
    m = layer_metrics(plain, traced, spans, jobs)
    st = self_ms(spans)
    per_dev = 1000.0 / (jobs * FLEET_DEVICES)
    named = traced["probe"]["named"]
    m.update({
        "bin.process_ms": bl.median([c - r for c, r in
                                     zip(cold, plain["inproc_ms"])]),
        "fleet.sample_us_per_device": st.get("fleet.sample", 0) * per_dev,
        "battery.periodic_us_per_device":
            st.get("battery.periodic", 0) * per_dev,
        "fleet.survival_us_per_device": st.get("fleet.survival", 0) * per_dev,
        "fleet.engine_unattributed_ms":
            (st.get("fleet.engine", 0) - st.get("fleet.sample", 0)
             - st.get("battery.periodic", 0) - st.get("fleet.survival", 0))
            / jobs,
        "fleet.deaths": named.get("fleet/deaths", 0) / jobs,
        "fleet.censored": named.get("fleet/censored", 0) / jobs,
        "numeric.pool_steals": plain["pool_steals"] / jobs,
        "numeric.pool_regions": plain["pool_regions"] / jobs})
    for label, us in plain["per_model_us"].items():
        m[f"battery.periodic_us_per_device.{label}"] = us
    for slot, v in enumerate(plain["busy_frac"]):
        m[f"numeric.pool_busy_frac.{slot}"] = v
    failed = plain["failed"] + traced["failed"] + sum(
        1 for s, c in zip(seeds, sums)
        if c is None or (s == FLEET_PINNED[0] and c != FLEET_PINNED[1]))
    return 3 * jobs, failed, m


# --- traced replay ----------------------------------------------------------

def traced_replays(wdir, cmd, *args):
    """Run a pbtool replay plain (with the tracing overhead and the
    workload's other in-process measurements), then traced, each in a
    fresh process so that both start with cold tables.  Returns both
    results and the traced run's spans, named by layer."""
    spans_path = os.path.join(wdir, f"{cmd}.spans.tsv")
    plain, traced = (json.loads(tool(cmd, spans_path, flag, *args,
                                     timeout=150))
                     for flag in (0, 1))
    spans = []
    with open(spans_path) as f:
        for line in f:
            _id, name, s, e, _parent, _op, track = line.rstrip("\n").split("\t")
            spans.append({"name": LAYER_OF.get(name, name), "start": int(s),
                          "end": int(e), "track": int(track)})
    return plain, traced, spans


def self_ms(spans):
    return {k: v / 1e6 for k, v in bl.self_times(spans).items()}


def layer_metrics(plain, traced, spans, n):
    """Per-op self time of every layer, counters per op, and the
    attribution check: self times plus `unattributed` = traced wall."""
    st = self_ms(spans)
    m = {layer + "_ms": ms / n for layer, ms in st.items()}
    wall = traced["wall_ms"]
    attributed = sum(st.values())
    if attributed > wall * 1.001:
        raise BenchError("span self times exceed the traced wall")
    p = traced["probe"]

    def ratio(a, b):
        return a / (a + b) if a + b else 0.0

    m.update({
        "trace.wall_ms": wall / n,
        "trace.unattributed_ms": (wall - attributed) / n,
        "trace.attributed_pct": 100.0 * attributed / wall,
        "bench.tracing_overhead_pct": plain["overhead_pct"],
        "core.iterations": p["iterations"] / n,
        "core.window_evals": p["window_evals"] / n,
        "core.choose_calls": p["choose_calls"] / n,
        "core.dpf_steps": p["dpf_steps"] / n,
        "battery.sigma_evals": p["sigma_evals"] / n,
        "baselines.anneal_accept_ratio":
            ratio(p["anneal_accepted"], p["anneal_rejected"]),
        "battery.delta_moves": (p["delta_swaps"] + p["delta_repoints"]) / n,
        "battery.delta_commit_ratio":
            ratio(p["delta_commits"], p["delta_discards"]),
        "battery.delta_full_evals": p["delta_full_evals"] / n,
        "numeric.contrib_hit_ratio":
            ratio(p["contrib_hits"], p["contrib_misses"]),
        "numeric.fmemo_hit_ratio": ratio(p["fmemo_hits"], p["fmemo_misses"]),
        "numeric.fcache_evictions": p["fcache_evictions"] / n,
        "runtime.minor_words_per_op": plain["minor_words"] / n,
        "runtime.major_gcs_per_op": plain["major_gcs"] / n})
    info(f"trace: wall {wall:.1f} ms over {n} ops; attributed "
         f"{m['trace.attributed_pct']:.1f}%; self ms "
         + ", ".join(f"{k} {v:.1f}" for k, v in sorted(st.items())))
    return m


def trace_all(args, wdir):
    """Every workload's traced replay; metrics under their final names."""
    attempted = failed = 0
    metrics = {}
    for w, fn in (("solve", solve_trace), ("serve", serve_trace),
                  ("fleet", fleet_trace)):
        a, f, m = fn(args.seed, wdir)
        attempted += a
        failed += f
        for name, _ in LAYERS[w]:
            metrics[layer_name(w, name)] = m.get(name, 0.0)
    return attempted, failed, metrics


# --- main -------------------------------------------------------------------

def self_test():
    import test_benchlib
    suite = unittest.defaultTestLoader.loadTestsFromModule(test_benchlib)
    with open(os.devnull, "w") as sink:
        res = unittest.TextTestRunner(stream=sink).run(suite)
    if not res.wasSuccessful():
        raise BenchError("benchmark self-tests failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["solve", "fleet"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    try:
        self_test()
        build()
        wdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
        os.makedirs(wdir)
        try:
            steal = Steal()
            if args.trace:
                attempted, failed, metrics = trace_all(args, wdir)
            else:
                run = {"solve": solve_run, "fleet": fleet_run}[args.workload]
                attempted, failed, metrics = run(args, wdir)
            sf = steal.frac()
        finally:
            shutil.rmtree(wdir, ignore_errors=True)
            try:
                os.rmdir(WORK)  # left when another run still uses it
            except OSError:
                pass
    except (BenchError, bl.TooFewSamples, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    info(f"host.steal_frac {sf:.4f}")
    if args.trace:
        metrics["host.steal_frac"] = sf
        units = dict(PER_LAYER)
    else:
        units = UNITS
    for k, v in metrics.items():
        if not math.isfinite(v):
            print(f"perfbench: {k} is not finite", file=sys.stderr)
            return 2
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
