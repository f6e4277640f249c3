"""Tests of the benchmark's own math.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import metrics as M  # noqa: E402
import run  # noqa: E402


def span(i, parent, name, ts, dur):
    return {"name": name, "ts": ts, "dur": dur,
            "args": {"id": i, "parent": parent, "trace": 0}}


class PercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertEqual(M.percentile(list(range(1, 1001)), 0.99), 990)
        self.assertIsNone(M.percentile(list(range(1, 1000)), 0.99))
        self.assertEqual(M.percentile(list(range(1, 21)), 0.5), 10)
        self.assertIsNone(M.percentile(list(range(1, 20)), 0.5))
        self.assertIsNone(M.percentile([], 0.5))

    def test_unsorted_input(self):
        samples = list(range(1000, 0, -1))
        self.assertEqual(M.percentile(samples, 0.99), 990)

    def test_bucketed_needs_ten_samples_beyond(self):
        # 1000 samples of value 5 (bucket 3 holds 4..7).
        dist = {"count": 1000, "sum": 5000, "min": 5, "max": 5,
                "buckets": [0, 0, 0, 1000]}
        self.assertEqual(M.bucket_percentile(dist, 0.99), 5)
        dist["count"] = 999
        dist["buckets"] = [0, 0, 0, 999]
        self.assertIsNone(M.bucket_percentile(dist, 0.99))

    def test_bucketed_matches_simulator_interpolation(self):
        # 100 samples in bucket 4 ([8, 15]), min 8 max 15: the rank-50
        # sample interpolates half way, as Distribution::percentile does.
        dist = {"count": 100, "sum": 1150, "min": 8, "max": 15,
                "buckets": [0, 0, 0, 0, 100]}
        self.assertAlmostEqual(M.bucket_percentile(dist, 0.5), 11.5)

    def test_merge_dists(self):
        a = {"count": 2, "sum": 3, "min": 1, "max": 2, "buckets": [0, 1, 1]}
        b = {"count": 1, "sum": 9, "min": 9, "max": 9,
             "buckets": [0, 0, 0, 0, 1]}
        m = M.merge_dists([a, None, b])
        self.assertEqual((m["count"], m["sum"], m["min"], m["max"]),
                         (3, 12, 1, 9))
        self.assertEqual(m["buckets"], [0, 1, 1, 0, 1])


class NormalisationTest(unittest.TestCase):
    def test_pieces_between_reference_samples(self):
        # Kernel samples at 9.99 (before), 11.0 (inside) and 12.0
        # (after); 20 ms is the reference speed.
        got = M.normalised_seconds(
            10.0, (0, 3), [0.01, 0.02, 0.01], [9.99, 11.0, 12.0], 0.02)
        piece1 = 1.0 * 0.02 / 0.015
        piece2 = (12.0 - 11.02) * 0.02 / 0.015
        self.assertAlmostEqual(got, piece1 + piece2)

    def test_reference_speed_leaves_time_unchanged(self):
        got = M.normalised_seconds(5.0, (3, 5), [9, 9, 9, 0.02, 0.02],
                                   [0, 0, 0, 4.98, 7.5], 0.02)
        self.assertAlmostEqual(got, 2.5)


class BandTest(unittest.TestCase):
    def test_distance(self):
        self.assertEqual(M.band_distance(3.0, 1.2, 6.7), 0.0)
        self.assertEqual(M.band_distance(1.2, 1.2, 6.7), 0.0)
        self.assertAlmostEqual(M.band_distance(0.2, 1.2, 6.7), 1.0)
        self.assertAlmostEqual(M.band_distance(9.7, 1.2, 6.7), 3.0)
        self.assertAlmostEqual(M.band_distance(8.04, 28.43, 28.43), 20.39)

    def test_paper_error_averages_cells_and_workload_bands(self):
        sim = {"cells": [
            {"name": "k", "scheme": "pmp", "cost": 100.0, "accesses": 1},
            {"name": "k", "scheme": "pmpt", "cost": 110.0, "accesses": 1},
            {"name": "k", "scheme": "hpmp", "cost": 101.0, "accesses": 1},
        ]}
        bands = [
            {"id": "a", "workload": "gap", "core": "rocket",
             "quantity": "pmpt_ovh_pct", "per": "cell", "lo": 1, "hi": 6},
            {"id": "b", "workload": "gap", "core": "rocket",
             "quantity": "hpmp_ovh_pct", "per": "cell", "lo": 0, "hi": 2},
            {"id": "c", "workload": "gap", "core": "rocket",
             "quantity": "mitigation_pct", "per": "workload",
             "lo": 95, "hi": 99},
            {"id": "d", "workload": "gap", "core": "boom",
             "quantity": "pmpt_ovh_pct", "per": "cell", "lo": 50, "hi": 60},
        ]
        err, rows = M.paper_error("gap", sim, bands)
        # pmpt 10 % is 4 above [1, 6]; hpmp 1 % inside; mitigation 90 %
        # is 5 below [95, 99]; the BOOM band does not apply.
        self.assertEqual(len(rows), 3)
        self.assertAlmostEqual(err, 3.0)

    def test_band_table_is_well_formed(self):
        bands = json.loads((BENCH / "bands.json").read_text())["bands"]
        for b in bands:
            self.assertLessEqual(b["lo"], b["hi"], b["id"])
            self.assertIn(b["workload"], run.WORKLOADS)
            self.assertTrue(b["source"])


class MitigationTest(unittest.TestCase):
    def test_share_removed(self):
        self.assertAlmostEqual(M.mitigation_pct(10.0, 4.0), 60.0)
        self.assertAlmostEqual(M.mitigation_pct(10.0, 0.0), 100.0)
        self.assertAlmostEqual(M.mitigation_pct(10.0, 10.0), 0.0)

    def test_undefined_when_pmpt_matches_pmp(self):
        self.assertIsNone(M.mitigation_pct(0.0, 0.0))
        self.assertIsNone(M.mitigation_pct(0.01, 0.005))
        self.assertIsNone(M.mitigation_pct(-0.2, 0.1))

    def test_mean_overhead_over_cells(self):
        cells = [
            {"name": "a", "scheme": "pmp", "cost": 100.0},
            {"name": "a", "scheme": "hpmp", "cost": 102.0},
            {"name": "b", "scheme": "pmp", "cost": 10.0},
            {"name": "b", "scheme": "hpmp", "cost": 10.0},
        ]
        self.assertAlmostEqual(M.mean_overhead_pct(cells, "hpmp"), 1.0)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            span(0, -1, "bench.setup", 0, 5),
            span(1, 0, "workloads.TeeEnv", 1, 3),
            span(2, -1, "bench.round", 10, 100),
            span(3, 2, "monitor.switchTo", 20, 30),
            span(4, 3, "smp.endCoalescedWindow", 25, 10),
            span(5, 2, "core.Machine.accessBatch", 60, 10),
        ]
        got = M.self_times(spans)
        # Set-up spans are outside every measured round.
        self.assertNotIn("workloads", got)
        self.assertAlmostEqual(got["bench"], (100 - 30 - 10) / 1e6)
        self.assertAlmostEqual(got["monitor"], (30 - 10) / 1e6)
        self.assertAlmostEqual(got["smp"], 10 / 1e6)
        self.assertAlmostEqual(got["core"], 10 / 1e6)
        self.assertAlmostEqual(sum(got.values()), 100 / 1e6)

    def test_child_overrunning_parent_is_clipped(self):
        spans = [span(0, -1, "bench.round", 0, 10),
                 span(1, 0, "core.x", 5, 10)]
        got = M.self_times(spans)
        self.assertAlmostEqual(got["bench"], 5 / 1e6)


class DigestTest(unittest.TestCase):
    def test_key_order_does_not_matter(self):
        a = {"cells": [{"name": "k", "cost": 1.5}], "stats": {"x": 1, "y": 2}}
        b = {"stats": {"y": 2, "x": 1}, "cells": [{"cost": 1.5, "name": "k"}]}
        self.assertEqual(M.digest(a), M.digest(b))

    def test_any_simulated_change_moves_it(self):
        a = {"cells": [{"name": "k", "cost": 1.5}]}
        self.assertNotEqual(M.digest(a),
                            M.digest({"cells": [{"name": "k", "cost": 1.25}]}))
        self.assertNotEqual(M.digest({"s": [1, 2]}), M.digest({"s": [2, 1]}))

    def test_stable_value(self):
        # Pinned so a change to the digest's canonical form shows up.
        self.assertEqual(M.digest({"b": [1, 2.5], "a": "x"}),
                         "66efddae6a975003")


class ChecksTest(unittest.TestCase):
    def test_cross_scheme(self):
        cells = [
            {"name": "k", "scheme": "pmp", "cost": 1.0, "accesses": 5},
            {"name": "k", "scheme": "pmpt", "cost": 3.0, "accesses": 5},
            {"name": "k", "scheme": "hpmp", "cost": 2.0, "accesses": 5},
        ]
        self.assertTrue(all(c["ok"] for c in
                            M.cross_scheme_checks("gap", cells)))
        cells[2]["cost"] = 4.0
        cells[1]["accesses"] = 6
        bad = [c["name"] for c in M.cross_scheme_checks("gap", cells)
               if not c["ok"]]
        self.assertEqual(bad, ["same_accesses.k", "cost_order.k"])


class ContractTest(unittest.TestCase):
    def test_benchmark_json_names_what_run_reports(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         set(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
