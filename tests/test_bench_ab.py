#!/usr/bin/env python3
"""Verdicts of the A/B perf gate (tools/bench_ab.py) on synthetic result lines.

    python3 tests/test_bench_ab.py

Feeds run.py-shaped result objects straight to the gate's decision function
with the repo's own BENCHMARK.json bounds, so nothing is built or run.
"""
import os
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(ROOT, "tools"))
import bench_ab  # noqa: E402

SPEC = bench_ab.load_spec(os.path.join(ROOT, "BENCHMARK.json"))
# A plausible run per workload; every end-to-end metric is present.
BASE = {"setup_s": 0.02, "steps_per_s": 20000.0, "call_p50_us": 70.0, "call_p99_us": 200.0,
        "snapshot_save_ms": 0.9, "snapshot_restore_ms": 1.1, "peak_rss_mb": 15.0}
# Run-to-run jitter of both sides: an IQR of 2% of the median.
JITTER = (0.98, 1.0, 1.02)


def result(metrics, failed=0, attempted=40):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": ""} for name, value in metrics.items()}}


def runs(scale=None, jitter=JITTER, failed=0):
    """One side's results, one per pair; `scale` multiplies named metrics."""
    scale = scale or {}
    return [result({name: value * scale.get(name, 1.0) * j for name, value in BASE.items()},
                   failed=failed) for j in jitter]


def decide(head=None, base=None):
    """Decision with every workload equal on both sides except where `head`
    or `base` maps a workload to that side's runs."""
    results = {w: {"base": (base or {}).get(w, runs()), "head": (head or {}).get(w, runs())}
               for w in SPEC["workloads"]}
    return bench_ab.decide(SPEC, results)


def verdicts(rows):
    return {(row[0], row[1]): row[-1] for row in rows}


class BenchAbVerdict(unittest.TestCase):
    def test_spec_names_the_metrics_these_cases_use(self):
        self.assertEqual(sorted(m["name"] for m in SPEC["metrics"]), sorted(BASE))

    def test_equal_sides_pass(self):
        rows, status = decide()
        self.assertEqual(status, 0)
        self.assertEqual(set(verdicts(rows).values()), {"ok"})
        # One row per (workload, metric) plus one failed/attempted row per workload.
        self.assertEqual(len(rows), len(SPEC["workloads"]) * (len(SPEC["metrics"]) + 1))

    def test_lower_steps_per_s_on_one_workload_fails_and_is_named(self):
        workload = SPEC["workloads"][-1]
        rows, status = decide(head={workload: runs({"steps_per_s": 0.7})})
        self.assertEqual(status, 1)
        regressed = [line for line in bench_ab.render(rows).splitlines() if "REGRESSED" in line]
        self.assertEqual(len(regressed), 1)
        self.assertIn(workload, regressed[0])
        self.assertIn("steps_per_s", regressed[0])
        self.assertIn("0/3", regressed[0])

    def test_lower_is_better_metrics_fail_only_past_their_bound(self):
        workload = SPEC["workloads"][0]
        rows, status = decide(head={workload: runs({"snapshot_save_ms": 1.3})})
        self.assertEqual(status, 1)
        self.assertEqual(verdicts(rows)[(workload, "snapshot_save_ms")], "REGRESSED")
        rows, status = decide(head={workload: runs({"snapshot_save_ms": 1.2})})
        self.assertEqual(status, 0)
        self.assertEqual(verdicts(rows)[(workload, "snapshot_save_ms")], "ok")

    def test_peak_rss_uses_its_own_tighter_bound(self):
        workload = SPEC["workloads"][1]
        rows, status = decide(head={workload: runs({"peak_rss_mb": 1.22})})
        self.assertEqual(status, 1)
        self.assertEqual(verdicts(rows)[(workload, "peak_rss_mb")], "REGRESSED")

    def test_a_larger_failed_share_fails(self):
        workload = SPEC["workloads"][0]
        rows, status = decide(head={workload: runs(failed=1)})
        self.assertEqual(status, 1)
        self.assertEqual(verdicts(rows)[(workload, "failed/attempted")], "REGRESSED")
        self.assertEqual([row[-1] for row in rows if row[-1] != "ok"], ["REGRESSED"])

    def test_a_base_spread_wider_than_the_bound_is_unresolved(self):
        workload = SPEC["workloads"][1]
        wide = (0.6, 1.0, 1.4)
        rows, status = decide(base={workload: runs(jitter=wide)},
                              head={workload: runs(jitter=wide)})
        self.assertEqual(status, 0)
        self.assertEqual(verdicts(rows)[(workload, "steps_per_s")], "unresolved")
        # Unless every head run reads better than every base run.
        rows, status = decide(base={workload: runs(jitter=wide)},
                              head={workload: runs({"steps_per_s": 1.5})})
        self.assertEqual(status, 0)
        self.assertEqual(verdicts(rows)[(workload, "steps_per_s")], "ok")


if __name__ == "__main__":
    unittest.main()
