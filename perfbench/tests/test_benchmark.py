"""Tests of the benchmark's definition and of run.py, end to end.

    cd perfbench/tests && python3 -m unittest -v test_benchmark

(`python3 perfbench/run.py --selftest` runs these after the C++ helper
tests.) The quick-mode cases build the benchmark and run every workload for
about a second each, traced and untraced.
"""

import contextlib
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import run  # noqa: E402


def run_cli(*argv):
    """Runs run.main(argv); returns (exit status, parsed last stdout line)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = run.main(list(argv))
    lines = out.getvalue().strip().splitlines()
    return status, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None)


class SpecTest(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()

    def test_spec_is_well_formed(self):
        self.assertEqual(run.spec_problems(self.spec), [])
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds", "workloads",
                                          "end_to_end", "per_layer"})

    def test_names_use_the_allowed_alphabet(self):
        for section in ("workloads", "end_to_end", "per_layer"):
            for entry in self.spec[section]:
                self.assertRegex(entry["name"], r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

    def test_bad_names_are_reported(self):
        spec = json.loads(json.dumps(self.spec))
        spec["per_layer"].append({"name": "bad name", "unit": "ms", "better": "lower"})
        spec["per_layer"].append(dict(spec["per_layer"][0]))
        problems = run.spec_problems(spec)
        self.assertTrue(any("bad name" in p for p in problems))
        self.assertTrue(any("duplicate" in p for p in problems))

    def test_every_per_layer_metric_belongs_to_a_workload(self):
        for m in self.spec["per_layer"]:
            self.assertTrue(any(m["name"].startswith(p)
                                for prefixes in run.LAYER_METRICS.values() for p in prefixes),
                            m["name"])
        self.assertEqual(set(run.LAYER_METRICS),
                         {w["name"] for w in self.spec["workloads"]})

    def test_a_missing_layer_metric_fails_the_run(self):
        spec = [{"name": "net.read_call_us_p99", "unit": "us"},
                {"name": "sim.ns_per_event", "unit": "ns"}]
        errors = []
        metrics = run.select(spec, {}, errors, lambda n: n.startswith("net."))
        self.assertEqual(errors, ["net.read_call_us_p99: not reported"])
        self.assertEqual(metrics, {"sim.ns_per_event": {"value": 0, "unit": "ns"}})
        errors = []
        run.select(spec, {"net.read_call_us_p99": {"value": None, "unit": "us"}},
                   errors, lambda n: True)
        self.assertEqual(len(errors), 2)

    def test_end_to_end_bounds(self):
        for m in self.spec["end_to_end"]:
            self.assertGreater(m["bound"], 0)
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))


class QuickRunTest(unittest.TestCase):
    """Every workload end to end in seconds; every metric name reported by
    the workload binary must be listed in BENCHMARK.json."""

    def setUp(self):
        self.spec = run.load_spec()

    def check(self, workload, trace):
        status, result = run_cli("--workload", workload, "--seed", "3", "--trace",
                                 str(trace), "--quick")
        self.assertEqual(status, 0, result)
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        section = "per_layer" if trace else "end_to_end"
        self.assertEqual(set(result["metrics"]), {m["name"] for m in self.spec[section]})
        return result["metrics"]

    def test_every_workload_untraced_and_traced(self):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"]):
                e2e = self.check(w["name"], 0)
                for name in ("setup_s", "throughput_per_s", "peak_rss_mb"):
                    self.assertGreater(e2e[name]["value"], 0)
                self.check(w["name"], 1)

    def test_wrong_pinned_digest_fails_the_run(self):
        with tempfile.TemporaryDirectory() as tmp:
            wrong = Path(tmp) / "PINNED_DIGEST"
            wrong.write_text("sim-ba1k 0000000000000000\n")
            with mock.patch.object(run, "PINNED_FILE", wrong):
                status, result = run_cli("--workload", "sim-ba1k", "--quick")
        self.assertEqual(status, 1)
        self.assertFalse(result["correct"])

    def test_unknown_workload_is_refused(self):
        status, result = run_cli("--workload", "no-such-workload", "--quick")
        self.assertEqual(status, 2)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
