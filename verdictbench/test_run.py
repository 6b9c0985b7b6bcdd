#!/usr/bin/env python3
"""Self-tests for the time-to-verdict benchmark's estimators, oracle,
determinism guard and metric names.

    python3 verdictbench/test_run.py
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

REPO = os.path.dirname(run.BENCH_DIR)


def program(name, expect, verdict, pass_, wall, traced=False, queries=10):
    """A worker `program` record with every field the analysis reads."""
    return {
        "kind": "program", "name": name, "expect": expect, "pass": pass_, "traced": traced,
        "cap": 100, "wall_s": wall,
        "probe_before_s": run.REFERENCE_PROBE_S, "probe_after_s": run.REFERENCE_PROBE_S, "verdict": verdict, "detail": "",
        "frontend_s": 0.004, "gen_s": 0.01, "fixpoint_s": wall * 0.8, "obligations_s": wall * 0.1,
        "kvars": 3, "initial_quals": 20, "constraints": 12, "iterations": 30, "rounds": 4,
        "queries": queries, "refused": 0, "checks": 15, "cache_hits": 5, "sessions": 2,
        "scoped_checks": 8, "query_time_count": queries, "query_time_sum_ns": 5_000_000,
        "phase_ns": {"parse": 1_000_000, "resolve": 1_000_000, "infer": 2_000_000, "spec": 0,
                     "constraint_gen": 10_000_000, "fixpoint": int(wall * 8e8), "obligations": int(wall * 1e8)},
        "theory_ns": {t: 1_000_000 for t in run.THEORIES},
        "micro": {
            "simplex_pivots": 100, "simplex_bb_nodes": 0, "euf_merges": 40,
            "euf_congruence_pairs": 7, "sat_decisions": 60, "sat_conflicts": 6,
            "arrays_axiom_instances": 0, "sets_saturation_lemmas": 2,
        },
        **({"trace_events": 50, "trace_self_us": {l: 1000 for l in run.TRACE_LAYERS}} if traced else {}),
    }


def workload(records, passes):
    return (
        [{"kind": "setup", "pass": p, "setup_s": 0.001 + p * 1e-4,
          "probe_before_s": run.REFERENCE_PROBE_S, "probe_after_s": run.REFERENCE_PROBE_S, "programs": 2}
         for p in range(passes)]
        + records
        + [{"kind": "done", "passes": passes, "elapsed_s": 1.0, "peak_rss_kb": 40960}]
    )


def clean_run(traced=False):
    recs = []
    for p, (a, b) in enumerate([(0.5, 0.2), (0.4, 0.3)]):
        t = traced and p == 1
        recs += [program("a", "holds", "UNSAFE", p, a, t), program("b", "violating", "UNSAFE", p, b, t)]
    return workload(recs, 2)


class Estimators(unittest.TestCase):
    def test_median_across_passes(self):
        self.assertEqual(run.median_across_passes({"a": [3.0, 1.0, 2.0], "b": [0.5]}), {"a": 2.0, "b": 0.5})

    def test_min_across_passes(self):
        self.assertEqual(run.min_across_passes({"a": [3.0, 1.0, 2.0], "b": [0.5]}), {"a": 1.0, "b": 0.5})

    def test_geomean(self):
        self.assertAlmostEqual(run.geomean([1.0, 4.0, 16.0]), 4.0)

    def test_p90_needs_ten_samples_beyond_it(self):
        self.assertIsNone(run.p90([float(i) for i in range(1, 100)]))
        self.assertEqual(run.p90([float(i) for i in range(1, 101)]), 90.0)
        self.assertIsNone(run.p90([1.0, 2.0, 3.0]))

    def test_times_are_scaled_to_the_reference_host_speed(self):
        ref = run.REFERENCE_PROBE_S
        rec = {"wall_s": 2.0, "probe_before_s": ref, "probe_after_s": 3 * ref}
        self.assertAlmostEqual(run.adjusted(rec, "wall_s"), 1.0)
        records = clean_run()
        slow = next(r for r in records if r.get("name") == "a" and r.get("pass") == 0)
        slow["probe_before_s"] = slow["probe_after_s"] = 2 * ref
        result = run.analyze(records)
        self.assertAlmostEqual(result["end_to_end"]["suite_s"], (0.25 + 0.4) / 2 + (0.2 + 0.3) / 2)
        self.assertAlmostEqual(result["raw_suite_s"], 0.4 + 0.2)

    def test_one_misscaled_sample_does_not_set_the_time(self):
        recs = [program("a", "holds", "UNSAFE", p, 1.0) for p in range(3)]
        recs[1]["probe_before_s"] = recs[1]["probe_after_s"] = 2 * run.REFERENCE_PROBE_S
        result = run.analyze(workload(recs, 3))
        self.assertAlmostEqual(result["end_to_end"]["suite_s"], 1.0)

    def test_suite_uses_each_programs_median_pass(self):
        result = run.analyze(clean_run())
        self.assertAlmostEqual(result["end_to_end"]["suite_s"], 0.45 + 0.25)
        self.assertAlmostEqual(result["end_to_end"]["verdict_s_median"], (0.45 + 0.25) / 2)

    def test_layer_times_come_from_the_fastest_pass(self):
        layers = run.analyze(clean_run())["per_layer"]
        self.assertAlmostEqual(layers["liquid.obligations_s"], 0.1 * (0.4 + 0.2))
        self.assertAlmostEqual(layers["nanoml.parse_s"], 2 * 0.001)
        self.assertAlmostEqual(layers["nanoml.infer_s"], 2 * 0.002)


class Oracle(unittest.TestCase):
    def test_verdict_table(self):
        self.assertTrue(run.oracle("safe", "SAFE"))
        self.assertFalse(run.oracle("safe", "UNKNOWN"))
        self.assertTrue(run.oracle("not-unsafe", "UNKNOWN"))
        self.assertFalse(run.oracle("not-unsafe", "UNSAFE"))
        self.assertTrue(run.oracle("holds", "UNSAFE"))
        self.assertFalse(run.oracle("holds", "ERROR"))
        self.assertFalse(run.oracle("violating", "PANIC"))

    def test_injected_safe_on_violating_program_fails_the_run(self):
        records = clean_run()
        next(r for r in records if r.get("name") == "b" and r.get("pass") == 1)["verdict"] = "SAFE"
        result = run.analyze(records)
        self.assertEqual(result["failures"], ["b"])
        self.assertEqual(result["failed"], 1)
        self.assertEqual(result["shares"]["failed_share"], 0.5)
        self.assertEqual(run.select_metrics(result, 0), {})


class DeterminismGuard(unittest.TestCase):
    def test_counts_differing_between_passes_are_flagged(self):
        records = clean_run()
        next(r for r in records if r.get("name") == "a" and r.get("pass") == 1)["queries"] = 11
        self.assertEqual(run.analyze(records)["nondeterministic"], ["a"])

    def test_ledger_flags_counts_that_differ_between_runs(self):
        table = run.analyze(clean_run())["programs"]
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "ledger.json")
            self.assertEqual(run.check_ledger(path, "build", "fleet", table), [])
            self.assertEqual(run.check_ledger(path, "build", "fleet", table), [])
            for count in run.GUARDED_COUNTS:
                table[0]["counts"][count] += 1
                self.assertEqual(run.check_ledger(path, "build", "fleet", table), ["a"], count)
                table[0]["counts"][count] -= 1
            table[0]["counts"]["simplex_pivots"] += 1
            self.assertEqual(run.check_ledger(path, "other-build", "fleet", table), [])


class MetricNames(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(REPO, "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def test_benchmark_json_matches_the_printed_names(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], run.WORKLOADS)
        self.assertEqual([(m["name"], m["unit"]) for m in self.spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in self.spec["per_layer"]], run.PER_LAYER)

    def test_every_metric_is_printed(self):
        untraced = run.select_metrics(run.analyze(clean_run()), 0)
        self.assertEqual(list(untraced), [m["name"] for m in self.spec["end_to_end"]])
        traced = run.select_metrics(run.analyze(clean_run(traced=True)), 1)
        self.assertEqual(list(traced), [m["name"] for m in self.spec["per_layer"]])
        for name, m in untraced.items():
            self.assertGreater(m["value"], 0, name)


if __name__ == "__main__":
    unittest.main()
