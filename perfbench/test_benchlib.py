"""Self-tests for the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

run.py also runs them before every measurement and refuses to report
numbers when one fails.
"""

import math
import random
import unittest

import benchlib as bl


class Percentiles(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond_it(self):
        self.assertEqual(bl.percentile(list(range(1, 101)), 90), 90)
        with self.assertRaises(bl.TooFewSamples):
            bl.percentile(list(range(1, 100)), 90)

    def test_failures_count_as_over_any_limit(self):
        lat = [1.0] * 85 + [math.inf] * 15
        self.assertEqual(bl.percentile(lat, 90), math.inf)
        self.assertEqual(bl.median(lat), 1.0)

    def test_median(self):
        self.assertEqual(bl.median([3, 1, 2]), 2)
        self.assertEqual(bl.median([4, 1, 2, 3]), 2.5)


class OpenLoop(unittest.TestCase):
    def test_latency_runs_from_the_due_time(self):
        # three requests due at 0, 0.1, 0.2 s; the generator stalled and
        # sent the second one 0.15 s late
        lat, late = bl.open_loop_latencies(
            0.0, 10.0, sent=[0.0, 0.25, 0.25], done=[0.05, 0.3, None])
        self.assertAlmostEqual(lat[0], 0.05)
        self.assertAlmostEqual(lat[1], 0.2)  # not 0.05 from its send
        self.assertEqual(lat[2], math.inf)   # no result: over any limit
        self.assertAlmostEqual(late[1], 0.15)
        self.assertAlmostEqual(late[2], 0.05)


class GeometricMean(unittest.TestCase):
    def test_is_geometric(self):
        self.assertAlmostEqual(bl.geomean([2.0, 0.5]), 1.0)
        self.assertAlmostEqual(bl.geomean([1.0, 4.0]), 2.0)
        self.assertAlmostEqual(bl.geomean([1.1]), 1.1)


class SelfTime(unittest.TestCase):
    def span(self, name, start, end, track=0):
        return {"name": name, "start": start, "end": end, "track": track}

    def test_span_minus_the_part_children_cover(self):
        spans = [self.span("op", 0, 100), self.span("a", 10, 40),
                 self.span("b", 50, 60), self.span("c", 20, 30)]
        st = bl.self_times(spans)
        self.assertEqual(st["op"], 100 - 30 - 10)
        self.assertEqual(st["a"], 30 - 10)
        self.assertEqual(st["b"], 10)
        self.assertEqual(st["c"], 10)
        # self times partition the root span
        self.assertEqual(sum(st.values()), 100)

    def test_same_name_adds_up_and_tracks_are_separate(self):
        spans = [self.span("x", 0, 10), self.span("x", 20, 25),
                 self.span("x", 0, 100, track=1), self.span("y", 5, 8, 1)]
        st = bl.self_times(spans)
        self.assertEqual(st["x"], 15 + 97)
        self.assertEqual(st["y"], 3)

    def test_union_length(self):
        self.assertEqual(bl.union_length([(0, 10), (5, 15), (20, 21)]), 16)
        self.assertEqual(bl.union_length([]), 0)


class Inputs(unittest.TestCase):
    def test_fork_join_has_n_tasks_and_a_dag(self):
        for n in (1, 2, 16, 57, 128):
            text, fast, slow = bl.fork_join_graph(random.Random(n), n, "g")
            tasks = [l for l in text.splitlines() if l.startswith("task ")]
            self.assertEqual(len(tasks), n)
            for l in text.splitlines():
                if l.startswith("edge "):
                    a, b = (int(t[1:]) for t in l.split()[1:])
                    self.assertLess(a, b)
            self.assertLess(fast, slow)

    def test_seeded(self):
        a = bl.fork_join_graph(bl.new_rng(7, "s"), 40, "g")
        b = bl.fork_join_graph(bl.new_rng(7, "s"), 40, "g")
        c = bl.fork_join_graph(bl.new_rng(8, "s"), 40, "g")
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)

    def test_deck_deals_every_item_once_per_pass(self):
        d = bl.deck(random.Random(3), "abcd")
        for _ in range(3):
            self.assertEqual(sorted(next(d) for _ in range(4)), list("abcd"))

    def test_stratified_sizes_cover_the_range(self):
        sizes = bl.stratified_sizes(random.Random(1), 240, 16, 128)
        self.assertEqual(min(sizes), 16)
        self.assertEqual(max(sizes), 128)
        self.assertEqual(len(sizes), 240)


if __name__ == "__main__":
    unittest.main()
