"""Tests of the benchmark's spec grammar and noise-audit arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import copy
import json
import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import audit  # noqa: E402
import run  # noqa: E402


class SpecGrammar(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads(run.SPEC_FILE.read_text())

    def test_committed_spec_is_valid(self):
        run.check_spec(self.spec)
        self.assertEqual(set(self.spec),
                         {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"})

    def test_names_follow_the_grammar(self):
        for bad in ("", "_lead", ".lead", "has space", "x" * 65, "semi;colon"):
            self.assertIsNone(run.NAME_RE.match(bad), bad)
        for good in ("p99_ms", "engine.keys_s", "a-b.c_d", "9lives", "x" * 64):
            self.assertIsNotNone(run.NAME_RE.match(good), good)
        for bad_unit in ("", "ns per test", "x" * 17):
            self.assertIsNone(run.UNIT_RE.match(bad_unit), bad_unit)
        for unit in ("ms", "1/s", "%", "count", "ratio", "MB"):
            self.assertIsNotNone(run.UNIT_RE.match(unit), unit)

    def test_check_spec_rejects_bad_metrics(self):
        cases = [
            ("end_to_end", 0, "name", "bad name"),
            ("per_layer", 0, "unit", "no spaces"),
            ("end_to_end", 1, "bound", 0.5),
            ("end_to_end", 1, "better", "faster"),
        ]
        for group, index, key, value in cases:
            spec = copy.deepcopy(self.spec)
            spec[group][index][key] = value
            with self.assertRaises(run.BenchError, msg=(group, key, value)):
                run.check_spec(spec)
        spec = copy.deepcopy(self.spec)
        spec["per_layer"].append(dict(spec["end_to_end"][0]))
        with self.assertRaises(run.BenchError):
            run.check_spec(spec)  # a repeated name
        spec = copy.deepcopy(self.spec)
        spec["end_to_end"] = [m for m in spec["end_to_end"]
                              if m["name"] != "setup_s"]
        with self.assertRaises(run.BenchError):
            run.check_spec(spec)

    def test_result_line_carries_exactly_the_spec_metrics(self):
        spec = self.spec
        record = {"metrics": {m["name"]: {"value": 1.5, "unit": m["unit"]}
                              for m in spec["end_to_end"]},
                  "layers": {}, "gate_failures": [], "correct": True}
        metrics, idle = run.select_metrics(spec, record, traced=False)
        self.assertEqual(list(metrics), [m["name"] for m in spec["end_to_end"]])
        self.assertEqual(idle, [])
        metrics, idle = run.select_metrics(spec, record, traced=True)
        self.assertEqual(set(metrics), {m["name"] for m in spec["per_layer"]})
        self.assertEqual(len(idle), len(spec["per_layer"]))
        del record["metrics"]["p50_ms"]
        with self.assertRaises(run.BenchError):
            run.select_metrics(spec, record, traced=False)

    def test_a_zero_end_to_end_metric_fails_the_gate(self):
        record = {"metrics": {m["name"]: {"value": 2.0, "unit": m["unit"]}
                              for m in self.spec["end_to_end"]},
                  "layers": {}, "gate_failures": [], "correct": True}
        record["metrics"]["classes_per_s"]["value"] = 0
        run.select_metrics(self.spec, record, traced=False)
        self.assertFalse(record["correct"])


class AuditArithmetic(unittest.TestCase):
    def test_spread_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 9.7, 10.6]
        med, q1, q3, s = audit.spread(values)
        want_q1, _, want_q3 = statistics.quantiles(values, n=4)
        self.assertEqual((q1, q3), (want_q1, want_q3))
        self.assertAlmostEqual(s, (want_q3 - want_q1) / statistics.median(values))

    def test_median_shift_direction(self):
        lower = {"better": "lower"}
        higher = {"better": "higher"}
        self.assertAlmostEqual(audit.worse_by(lower, 10.0, 11.0), 0.1)
        self.assertAlmostEqual(audit.worse_by(higher, 10.0, 9.0), 0.1)
        self.assertLess(audit.worse_by(higher, 10.0, 11.0), 0)

    def test_seed_ranges(self):
        self.assertEqual(audit.parse_seeds("1-3,7"), [1, 2, 3, 7])


if __name__ == "__main__":
    unittest.main()
