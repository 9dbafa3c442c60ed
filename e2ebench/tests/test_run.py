"""Tests of run.py's metric-name, unit and result-line checks.

    python3 -m unittest discover -s e2ebench/tests
"""

import copy
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402

with open(os.path.join(os.path.dirname(os.path.dirname(HERE)),
                       "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def good_result(trace=False):
    metrics = {m["name"]: {"value": 1.25, "unit": m["unit"]}
               for m in SPEC["per_layer" if trace else "end_to_end"]}
    return {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}


class SpecChecks(unittest.TestCase):
    def test_benchmark_json_is_clean(self):
        self.assertEqual(run.spec_problems(SPEC), [])

    def test_setup_metric_is_declared(self):
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s",
                                  "better": "lower", "bound": 0.25}])

    def test_bad_names_and_units(self):
        spec = copy.deepcopy(SPEC)
        spec["end_to_end"].append({"name": "_starts_badly", "unit": "ms"})
        spec["end_to_end"].append({"name": "latency_ms", "unit": "ms"})
        spec["per_layer"].append({"name": "x" * 65, "unit": "ms"})
        spec["per_layer"].append({"name": "ok_name", "unit": "m s"})
        problems = run.spec_problems(spec)
        self.assertEqual(len(problems), 4, problems)


class ResultChecks(unittest.TestCase):
    def test_good_results_pass(self):
        self.assertEqual(run.result_problems(good_result(), SPEC, False), [])
        self.assertEqual(run.result_problems(good_result(True), SPEC, True),
                         [])

    def test_trace_flag_selects_the_metric_list(self):
        self.assertTrue(run.result_problems(good_result(), SPEC, True))

    def test_missing_extra_and_wrong_unit(self):
        r = good_result()
        del r["metrics"]["latency_ms"]
        r["metrics"]["bogus_ms"] = {"value": 1.0, "unit": "ms"}
        r["metrics"]["setup_s"]["unit"] = "ms"
        problems = " ".join(run.result_problems(r, SPEC, False))
        self.assertIn("missing metrics: ['latency_ms']", problems)
        self.assertIn("unexpected metrics: ['bogus_ms']", problems)
        self.assertIn("setup_s: unit 'ms'", problems)

    def test_values_must_be_finite_numbers(self):
        for bad in (float("nan"), float("inf"), "1.0", True, None):
            r = good_result()
            r["metrics"]["tail_ms"]["value"] = bad
            self.assertTrue(run.result_problems(r, SPEC, False), bad)

    def test_envelope(self):
        r = good_result()
        r["extra"] = 1
        self.assertTrue(run.result_problems(r, SPEC, False))
        for key, bad in (("attempted", 0), ("attempted", 1.5),
                         ("failed", -1), ("correct", False)):
            r = good_result()
            r[key] = bad
            self.assertTrue(run.result_problems(r, SPEC, False), (key, bad))


if __name__ == "__main__":
    unittest.main()
