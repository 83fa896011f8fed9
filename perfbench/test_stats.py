"""Self-tests of the benchmark's statistics and metric table.

    python3 perfbench/test_stats.py

run.py runs these before every measurement and refuses to report when
one fails.
"""

import json
import os
import statistics
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import stats  # noqa: E402


class NearestRank(unittest.TestCase):
    def test_picks_the_ceil_rank_sample(self):
        values = list(range(1, 11))
        self.assertEqual(stats.nearest_rank(values, 0.5), 5)
        self.assertEqual(stats.nearest_rank(values, 0.9), 9)
        self.assertEqual(stats.nearest_rank(values, 0.91), 10)
        self.assertEqual(stats.nearest_rank(values, 1.0), 10)
        self.assertEqual(stats.nearest_rank(values, 0.01), 1)

    def test_rounding_error_does_not_bump_the_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.nearest_rank(values, 0.07), 7)
        self.assertEqual(stats.nearest_rank(values, 0.99), 99)

    def test_unsorted_input_and_single_sample(self):
        self.assertEqual(stats.nearest_rank([30, 10, 20], 0.5), 20)
        self.assertEqual(stats.nearest_rank([4.5], 0.9), 4.5)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            stats.nearest_rank([], 0.5)
        with self.assertRaises(ValueError):
            stats.nearest_rank([1, 2], 0.0)
        with self.assertRaises(ValueError):
            stats.nearest_rank([1, 2], 1.5)


class TopPercentile(unittest.TestCase):
    def test_needs_ten_samples_beyond_the_rank(self):
        self.assertEqual(stats.top_percentile(10000), 99.9)
        self.assertEqual(stats.top_percentile(9999), 99.0)
        self.assertEqual(stats.top_percentile(1000), 99.0)
        self.assertEqual(stats.top_percentile(999), 90.0)
        self.assertEqual(stats.top_percentile(100), 90.0)
        self.assertEqual(stats.top_percentile(20), 50.0)
        self.assertIsNone(stats.top_percentile(19))
        self.assertIsNone(stats.top_percentile(0))


class MediansAndQuartiles(unittest.TestCase):
    def test_median(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            stats.median([])

    def test_quartiles_match_statistics_quantiles(self):
        values = [7.0, 1.0, 9.5, 3.25, 4.0, 8.0, 2.0, 6.0, 5.5, 10.0]
        self.assertEqual(stats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))
        self.assertEqual(stats.quartiles(list(range(1, 11))),
                         (2.75, 5.5, 8.25))

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(stats.spread(list(range(1, 11))), 1.0)
        self.assertEqual(stats.spread([5.0] * 10), 0.0)
        with self.assertRaises(ValueError):
            stats.spread([1.0])


class DerivedPerLayerNumbers(unittest.TestCase):
    def test_batch_fill(self):
        self.assertEqual(stats.batch_fill(800, 100, 8), 1.0)
        self.assertEqual(stats.batch_fill(300, 150, 8), 0.25)
        self.assertEqual(stats.batch_fill(0, 0, 8), 0.0)

    def test_net_overhead(self):
        self.assertAlmostEqual(stats.net_overhead_us([1300.0, 1400.0], 1000.0),
                               350.0)
        with self.assertRaises(ValueError):
            stats.net_overhead_us([], 1000.0)

    def test_change_and_ratio(self):
        self.assertAlmostEqual(stats.change_pct(200.0, 210.0), 5.0)
        self.assertAlmostEqual(stats.change_pct(200.0, 190.0), -5.0)
        self.assertEqual(stats.ratio(3, 4), 0.75)
        self.assertEqual(stats.ratio(3, 0), 0.0)

    def test_spans_named(self):
        spans = [["a", 10, 25, -1, 0], ["b", 0, 5, 0, 1], ["a", 30, 31, -1, 2]]
        self.assertEqual(stats.spans_named(spans, "a"), [15, 1])
        self.assertEqual(stats.spans_named(spans, "c"), [])


class MetricTable(unittest.TestCase):
    """BENCHMARK.json declares exactly the workloads and metrics run.py
    reports, in the same units."""

    def setUp(self):
        path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
        with open(path) as f:
            self.declared = json.load(f)

    def check(self, key, table):
        declared = {m["name"]: m["unit"] for m in self.declared[key]}
        self.assertEqual(declared, table)

    def test_workloads(self):
        self.assertEqual([w["name"] for w in self.declared["workloads"]],
                         list(run.WORKLOADS))

    def test_end_to_end(self):
        self.check("end_to_end", run.END_TO_END)
        self.assertIn("setup_s", run.END_TO_END)

    def test_per_layer(self):
        self.check("per_layer", run.PER_LAYER)


class WorkspaceHitRatio(unittest.TestCase):
    def test_sums_every_snapshot(self):
        def snapshot(hits, misses):
            return {"counters": {"workspace.acquire_hits": hits,
                                 "workspace.acquire_misses": misses}}
        self.assertEqual(run.workspace_hit_ratio(snapshot(3, 1)), 0.75)
        self.assertEqual(run.workspace_hit_ratio(snapshot(3, 1),
                                                 snapshot(5, 7)), 0.5)
        self.assertEqual(run.workspace_hit_ratio(snapshot(0, 0)), 0.0)


if __name__ == "__main__":
    unittest.main()
