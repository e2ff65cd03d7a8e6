"""Self-test of the benchmark's arithmetic at tiny sizes.

    python3 perfbench/test_benchmath.py
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True
import benchmath  # noqa: E402


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(benchmath.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(benchmath.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        q1, q2, q3 = benchmath.quartiles(values)
        self.assertEqual((q1, q2, q3), tuple(statistics.quantiles(values, n=4)))
        # Exclusive method: positions (n + 1) p.
        self.assertAlmostEqual(q1, 2.75)
        self.assertAlmostEqual(q2, 5.5)
        self.assertAlmostEqual(q3, 8.25)

    def test_quartiles_of_one_value(self):
        self.assertEqual(benchmath.quartiles([7.0]), (7.0, 7.0, 7.0))


class Throughput(unittest.TestCase):
    def test_sum_over_sum(self):
        # 100 sim-s in 1 s and 100 sim-s in 3 s: 50 sim-s/s, not the 66.7
        # mean of the two rates.
        self.assertAlmostEqual(benchmath.throughput([100.0, 100.0], [1.0, 3.0]), 50.0)

    def test_single_repeat(self):
        self.assertAlmostEqual(benchmath.throughput([500.0], [0.25]), 2000.0)


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # setup (100) > [parse (10), build (60) > [map (25), nodes (30)]]; run (500)
        spans = [
            {"id": 0, "name": "harness.setup", "parent": -1, "total_ns": 100},
            {"id": 1, "name": "harness.parse", "parent": 0, "total_ns": 10},
            {"id": 2, "name": "harness.build", "parent": 0, "total_ns": 60},
            {"id": 3, "name": "geo.map_build", "parent": 2, "total_ns": 25},
            {"id": 4, "name": "harness.add_nodes", "parent": 2, "total_ns": 30},
            {"id": 5, "name": "sim.run", "parent": -1, "total_ns": 500},
        ]
        own = benchmath.self_times(spans)
        self.assertEqual(own, {0: 30, 1: 10, 2: 5, 3: 25, 4: 30, 5: 500})
        self.assertEqual(sum(own.values()), 100 + 500)

    def test_aggregate_children(self):
        # A replay span whose per-step calls were folded into aggregates.
        spans = [
            {"id": 0, "name": "mobility.replay", "parent": -1, "total_ns": 1000},
            {"id": 1, "name": "mobility.step_all", "parent": 0, "total_ns": 400},
            {"id": 2, "name": "geo.all_pairs", "parent": 0, "total_ns": 350},
        ]
        self.assertEqual(benchmath.self_times(spans)[0], 250)
        self.assertAlmostEqual(benchmath.span_seconds(spans, "geo.all_pairs"), 350e-9)
        self.assertEqual(benchmath.span_seconds(spans, "absent"), 0.0)


class Ratios(unittest.TestCase):
    def test_routing_share(self):
        self.assertAlmostEqual(benchmath.routing_share(0.25, 2.0), 0.875)
        self.assertEqual(benchmath.routing_share(2.0, 2.0), 0.0)

    def test_ratio_with_nothing_measured(self):
        self.assertEqual(benchmath.ratio(5.0, 0), 0.0)
        self.assertEqual(benchmath.ratio(5.0, 2), 2.5)

    def test_shard_busy_deals_points_modulo_workers(self):
        # Node count innermost: odd points are the large ones.
        self.assertEqual(benchmath.shard_busy([1.0, 3.0, 1.0, 3.0, 2.0], 2), [4.0, 6.0])

    def test_imbalance(self):
        self.assertAlmostEqual(benchmath.imbalance([2.0, 6.0]), 1.5)
        self.assertEqual(benchmath.imbalance([3.0, 3.0]), 1.0)


if __name__ == "__main__":
    unittest.main()
