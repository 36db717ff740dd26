"""Tests of the benchmark itself (not of the package).

    python3 bench/selftest.py
"""
from __future__ import annotations

import json
import math
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


class SeedTest(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        self.assertEqual(workloads.draw_count_params(7), workloads.draw_count_params(7))
        self.assertNotEqual(workloads.draw_count_params(7), workloads.draw_count_params(8))
        first, second = workloads.Counts(None), workloads.Counts(None)
        for counts in (first, second):
            counts.setup()
            counts.make_inputs(7)
        self.assertEqual(first.inputs, second.inputs)

    def test_counts_draws_cover_the_stated_ranges(self):
        params = workloads.draw_count_params(3)
        self.assertEqual([p[0] for p in params[:4]], ["hsps", "wcs", "hsps", "wcs"])
        for kind, distance, mu, mu_prime, pulses in params:
            self.assertTrue(0.0 <= distance <= 200.0)
            self.assertTrue(0.01 <= mu <= 0.2)
            self.assertTrue(mu + 0.05 <= mu_prime <= 1.0)
            self.assertTrue(all(1e9 <= n <= 1e11 for n in pulses))


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        clock = FakeClock()
        saved = tracer.perf_counter_ns
        tracer.perf_counter_ns = clock
        try:
            t = tracer.Tracer()

            def leaf():
                clock.now += 20

            leaf_w = t.wrap("channel.transmittance", leaf)

            def middle():
                clock.now += 4
                leaf_w()
                clock.now += 6

            middle_w = t.wrap("observables.forecast", middle)

            def outer():
                clock.now += 5
                middle_w()
                clock.now += 7
                leaf_w()
                clock.now += 3

            t.wrap("optimizer.search", outer)()
        finally:
            tracer.perf_counter_ns = saved
        summary = t.summarize()
        self.assertEqual(summary["optimizer.search"], {"calls": 1, "self_s": 15e-9})
        self.assertEqual(summary["observables.forecast"], {"calls": 1, "self_s": 10e-9})
        self.assertEqual(summary["channel.transmittance"], {"calls": 2, "self_s": 40e-9})
        self.assertEqual(list(t.parent), [-1, 0, 1, 0])

    def test_install_patches_and_restores(self):
        from decoy_hsps import optimizer

        original = optimizer.forecast_observables
        t = tracer.Tracer()
        patched = t.install()
        try:
            self.assertIn("decoy_hsps.optimizer.forecast_observables", patched)
            self.assertIsNot(optimizer.forecast_observables, original)
        finally:
            t.uninstall()
        self.assertIs(optimizer.forecast_observables, original)


class TailTest(unittest.TestCase):
    def test_nearest_rank(self):
        self.assertEqual(worker.nearest_rank(range(1, 1001), 99.0), (990, 10))
        self.assertEqual(worker.nearest_rank(range(100, 0, -1), 75.0), (75, 25))
        self.assertEqual(worker.nearest_rank([2.0, 1.0], 50.0), (1.0, 1))

    def test_each_workload_leaves_ten_samples_beyond_its_tail(self):
        # Typical fewest ops in a 30-second run: figures 7 passes, cutoff 25
        # passes, counts a full latency sample.
        for cls, n in ((workloads.Figures, 21), (workloads.Cutoff, 75),
                       (workloads.Counts, worker.LATENCY_CAP)):
            _, beyond = worker.nearest_rank(range(n), cls.tail_percentile)
            self.assertGreaterEqual(beyond, 10)

    def test_latency_sample_keeps_all_then_a_uniform_sample(self):
        sample = worker.LatencySample(cap=1000)
        for i in range(500):
            sample.add(float(i), 2.0)
        self.assertEqual(sample.wall(), [float(i) for i in range(500)])
        self.assertEqual(sample.scaled(), [2.0 * i for i in range(500)])
        # A pass that alternates two op kinds must stay represented by both.
        for i in range(500, 200_000):
            sample.add(float(i % 2), 1.0)
        self.assertEqual((sample.seen, sample.n), (200_000, 1000))
        kept = sample.wall()[500:] + sample.wall()[:500]
        share = sum(v == 1.0 for v in kept) / len(kept)
        self.assertTrue(0.4 < share < 0.6, share)


class FigureCheckTest(unittest.TestCase):
    def setUp(self):
        self.ref = {"header": ["d", "r"], "rows": [[0.0, -3.0], [1.0, None]],
                    "points": [[0.0, "hsps", 0.05, 0.5]]}

    def variant(self, rows=None, mu_prime=0.5):
        return {"header": ["d", "r"], "rows": rows or [[0.0, -3.0], [1.0, None]],
                "points": [[0.0, "hsps", 0.05, mu_prime]]}

    def test_within_tolerance_passes(self):
        self.assertIsNone(workloads.compare_figure(
            self.variant(rows=[[0.0, -3.0 * (1 + 5e-7)], [1.0, None]], mu_prime=0.50009),
            self.ref))

    def test_value_or_inf_mismatch_fails(self):
        self.assertIsNotNone(workloads.compare_figure(
            self.variant(rows=[[0.0, -3.0 * (1 + 2e-6)], [1.0, None]]), self.ref))
        self.assertIsNotNone(workloads.compare_figure(
            self.variant(rows=[[0.0, -3.0], [1.0, -12.0]]), self.ref))
        self.assertIsNotNone(workloads.compare_figure(self.variant(mu_prime=0.5002), self.ref))

    def test_reference_holds_neg_inf_as_null(self):
        rows = workloads.load_reference()["figures"]["2"]["rows"]
        self.assertTrue(any(v is None for row in rows for v in row))
        self.assertTrue(all(v is None or math.isfinite(v) for row in rows for v in row))


class BenchmarkJsonTest(unittest.TestCase):
    def test_metrics_match_the_runner(self):
        spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER_UNITS)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOAD_NAMES))
        self.assertEqual(sorted(run.WORKLOAD_NAMES), sorted(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
