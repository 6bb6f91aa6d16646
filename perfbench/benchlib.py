"""Arithmetic and input generation for perfbench/run.py.

Everything here is pure (no processes, no clocks) so that
perfbench/test_benchlib.py can check it; run.py runs those checks
before every measurement.
"""

import hashlib
import math
import random

# --- statistics -------------------------------------------------------------

MIN_BEYOND = 10  # a percentile is reported only with this many samples above it


class TooFewSamples(ValueError):
    pass


def percentile(values, p):
    """Nearest-rank percentile of `values` (infinite values allowed: a
    failed or refused op is over any limit).  Raises TooFewSamples
    unless at least MIN_BEYOND samples lie beyond the reported rank."""
    xs = sorted(values)
    n = len(xs)
    rank = max(1, math.ceil(p / 100.0 * n))
    if n - rank < MIN_BEYOND:
        raise TooFewSamples(
            f"p{p:g} needs {MIN_BEYOND} samples beyond it; "
            f"{n} samples leave {n - rank}")
    return xs[rank - 1]


def median(values):
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise TooFewSamples("median of no samples")
    mid = n // 2
    return xs[mid] if n % 2 else (xs[mid - 1] + xs[mid]) / 2.0


def geomean(ratios):
    """Geometric mean: the right average for per-instance ratios, since
    a 2x win and a 2x loss cancel."""
    rs = list(ratios)
    if not rs:
        raise ValueError("geometric mean of no ratios")
    return math.exp(sum(math.log(r) for r in rs) / len(rs))


def open_loop_latencies(start, rate, sent, done):
    """Open-loop timing.  Op i is due at start + i/rate; its latency runs
    from that due time (not from when it was actually sent, so a stall
    also charges the ops queued behind it) to its result, and is
    infinite when no result came.  Returns (latencies, lateness), where
    lateness is how far behind schedule the generator sent each op."""
    lat, late = [], []
    for i, t_sent in enumerate(sent):
        due = start + i / rate
        late.append(t_sent - due)
        t_done = done[i]
        lat.append(math.inf if t_done is None else t_done - due)
    return lat, late


# --- spans ------------------------------------------------------------------

def union_length(intervals):
    """Total length covered by a set of [start, end) intervals."""
    total = 0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """spans: dicts with name, start, end, track.  Nests spans of one
    track by containment and returns {name: total self time}, a span's
    self time being its duration minus the part of it that its child
    spans cover."""
    out = {}
    tracks = {}
    for s in spans:
        tracks.setdefault(s["track"], []).append(s)
    for ss in tracks.values():
        ss.sort(key=lambda s: (s["start"], -s["end"]))
        children = {}
        stack = []
        for s in ss:
            while stack and not (stack[-1]["start"] <= s["start"]
                                 and s["end"] <= stack[-1]["end"]):
                stack.pop()
            if stack:
                children.setdefault(id(stack[-1]), []).append(s)
            stack.append(s)
        for s in ss:
            kids = [(max(k["start"], s["start"]), min(k["end"], s["end"]))
                    for k in children.get(id(s), [])]
            own = (s["end"] - s["start"]) - union_length(kids)
            out[s["name"]] = out.get(s["name"], 0) + own
    return out


# --- inputs -----------------------------------------------------------------

# Design points follow the generator in lib/taskgraph/generators.ml: five
# cube-law points per task, currents 300-1000 mA and durations 3-12 min
# at the fastest point.
FACTORS = [1.0 - (1.0 - 0.33) * i / 4 for i in range(5)]


def fork_join_graph(rng, n, label):
    """A fork-join task graph of exactly n tasks in the Textio format,
    with its all-fastest and all-slowest serial times."""
    edges = []
    count, junction = 1, 0
    while count < n:
        left = n - count
        if left == 1:
            edges.append((junction, count))
            count += 1
            break
        width = min(rng.randint(2, 6), left - 1)
        join = count + width
        for v in range(count, join):
            edges += [(junction, v), (v, join)]
        count, junction = join + 1, join
    lines = [f"graph {label}"]
    fast = slow = 0.0
    for t in range(n):
        base_i = rng.uniform(300.0, 1000.0)
        base_d = rng.uniform(3.0, 12.0)
        points = []
        for k, s in enumerate(FACTORS):
            cur = round(base_i * s ** 3, 3)
            dur = round(base_d / s, 3)
            points.append(f"{cur:.3f}:{dur:.3f}:{s:.4f}")
            if k == 0:
                fast += dur
            if k == len(FACTORS) - 1:
                slow += dur
        lines.append(f"task T{t + 1} " + " ".join(points))
    lines += [f"edge T{a + 1} T{b + 1}" for a, b in edges]
    return "\n".join(lines) + "\n", fast, slow


def stratified_sizes(rng, count, lo, hi):
    """`count` sizes covering lo..hi evenly (one draw per stratum, in
    random order), so every seed sees the same size distribution."""
    span = hi - lo + 1
    sizes = [lo + min(span - 1, int((i + rng.random()) * span / count))
             for i in range(count)]
    rng.shuffle(sizes)
    return sizes


def deck(rng, items):
    """Endless draws from `items`, each pass a fresh shuffle: every item
    comes up once per pass, in random order."""
    items = list(items)
    while True:
        order = items[:]
        rng.shuffle(order)
        yield from order


def digest(chunks):
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else c.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def new_rng(seed, stream):
    """Independent generator per input stream of a workload seed."""
    return random.Random(f"{seed}/{stream}")
