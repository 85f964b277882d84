#!/usr/bin/env python3
"""Unit tests for the bench regression gate (scripts/bench_compare.py).

Runs the comparator as a subprocess against small synthetic baseline and
current JSON files, asserting on exit code and key phrases in the output.
Registered with ctest as BenchCompareGate.PythonSuite so the gate's own
failure semantics are covered by the tier-1 suite — in particular the
absent-vs-null distinction: a gated key that silently disappears from a
bench's output must FAIL the gate, while an explicit null is a declared
"unmeasurable here" skip (which itself turns into a failure on CI runners
when the gate says require_in_ci).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "bench_compare.py")


def run_compare(baseline, current, env_extra=None):
    """Write both dicts to temp files, run the comparator, return
    (exit_code, combined_output)."""
    env = {k: v for k, v in os.environ.items() if k != "CI"}
    if env_extra:
        env.update(env_extra)
    with tempfile.TemporaryDirectory() as d:
        bpath = os.path.join(d, "baseline.json")
        cpath = os.path.join(d, "current.json")
        with open(bpath, "w") as f:
            json.dump(baseline, f)
        with open(cpath, "w") as f:
            json.dump(current, f)
        proc = subprocess.run(
            [sys.executable, SCRIPT, bpath, cpath],
            capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout + proc.stderr


class SpecGateTest(unittest.TestCase):
    """Baseline-embedded "gates" vocabulary."""

    BASE = {
        "gates": {
            "events_per_sec": {"direction": "higher", "tolerance": 0.50},
            "wire_bytes": {"direction": "lower", "tolerance": 0.10},
        },
        "events_per_sec": 1000.0,
        "wire_bytes": 5000,
    }

    def test_within_band_passes(self):
        code, out = run_compare(
            self.BASE, {"events_per_sec": 900.0, "wire_bytes": 5100})
        self.assertEqual(code, 0, out)
        self.assertIn("all gated metrics within budget", out)

    def test_higher_direction_regression_fails(self):
        code, out = run_compare(
            self.BASE, {"events_per_sec": 400.0, "wire_bytes": 5000})
        self.assertEqual(code, 1, out)
        self.assertIn("REGRESSION", out)
        self.assertIn("events_per_sec", out)

    def test_lower_direction_regression_fails(self):
        code, out = run_compare(
            self.BASE, {"events_per_sec": 1000.0, "wire_bytes": 6000})
        self.assertEqual(code, 1, out)
        self.assertIn("wire_bytes", out)

    def test_absent_gated_key_fails(self):
        # The bug this suite exists for: a gated key missing from the
        # current run (renamed counter, dropped metric) must fail, not
        # silently pass as if it had been judged.
        code, out = run_compare(self.BASE, {"events_per_sec": 1000.0})
        self.assertEqual(code, 1, out)
        self.assertIn("missing from current run", out)
        self.assertIn("wire_bytes", out)

    def test_explicit_null_skips_locally(self):
        code, out = run_compare(
            self.BASE,
            {"events_per_sec": 1000.0, "wire_bytes": None})
        self.assertEqual(code, 0, out)
        self.assertIn("skipped", out)

    def test_null_with_require_in_ci_fails_on_ci(self):
        base = json.loads(json.dumps(self.BASE))
        base["gates"]["wire_bytes"]["require_in_ci"] = True
        cur = {"events_per_sec": 1000.0, "wire_bytes": None}
        code, out = run_compare(base, cur, env_extra={"CI": "true"})
        self.assertEqual(code, 1, out)
        self.assertIn("required on CI runners", out)
        # Same inputs off-CI: a clean skip.
        code, out = run_compare(base, cur)
        self.assertEqual(code, 0, out)

    def test_absent_key_fails_even_off_ci(self):
        base = json.loads(json.dumps(self.BASE))
        base["gates"]["wire_bytes"]["require_in_ci"] = True
        code, out = run_compare(base, {"events_per_sec": 1000.0})
        self.assertEqual(code, 1, out)
        self.assertIn("missing from current run", out)

    def test_null_baseline_uses_absolute_min_floor(self):
        base = {
            "gates": {"speedup": {"direction": "higher", "min": 2.0}},
            "speedup": None,
        }
        code, out = run_compare(base, {"speedup": 2.5})
        self.assertEqual(code, 0, out)
        self.assertIn("absolute floor", out)
        code, out = run_compare(base, {"speedup": 1.2})
        self.assertEqual(code, 1, out)

    def test_null_baseline_without_min_is_context_only(self):
        base = {"gates": {"speedup": {"direction": "higher"}},
                "speedup": None}
        code, out = run_compare(base, {"speedup": 0.1})
        self.assertEqual(code, 0, out)
        self.assertIn("no baseline, no min", out)

    def test_skipped_current_run_passes(self):
        code, out = run_compare(self.BASE,
                                {"skipped": True, "reason": "no loopback"})
        self.assertEqual(code, 0, out)
        self.assertIn("passing without comparison", out)


class ZeroCopyGateTest(unittest.TestCase):
    """The zero-copy datapath gates of the hotpath/live baselines."""

    BASE = {
        "gates": {
            "heap_allocs_per_sample": {"direction": "lower",
                                       "tolerance": 0.10},
            "net_payload_bytes_copied_per_sample": {"direction": "lower",
                                                    "tolerance": 0.10},
        },
        "heap_allocs_per_sample": 0.0,
        "net_payload_bytes_copied_per_sample": 100.0,
    }

    def test_zero_baseline_means_zero_tolerance(self):
        code, out = run_compare(
            self.BASE, {"heap_allocs_per_sample": 0.5,
                        "net_payload_bytes_copied_per_sample": 100.0})
        self.assertEqual(code, 1, out)
        self.assertIn("heap_allocs_per_sample", out)

    def test_within_headroom_passes(self):
        code, out = run_compare(
            self.BASE, {"heap_allocs_per_sample": 0.0,
                        "net_payload_bytes_copied_per_sample": 105.0})
        self.assertEqual(code, 0, out)

    def test_committed_hotpath_baseline_gates_both_keys(self):
        with open(os.path.join(os.path.dirname(SCRIPT), "..", "bench",
                               "baselines", "hotpath.json")) as f:
            base = json.load(f)
        same = {k: v for k, v in base.items() if k != "gates"}
        code, out = run_compare(base, same)
        self.assertEqual(code, 0, out)
        for key, bad in (("heap_allocs_per_sample",
                          base["heap_allocs_per_sample"] * 1.2),
                         ("net_payload_bytes_copied_per_sample", 1.0)):
            code, out = run_compare(base, dict(same, **{key: bad}))
            self.assertEqual(code, 1, out)
            self.assertIn(f"regressed: {key}", out)

    def test_baseline_without_gates_is_an_error(self):
        code, out = run_compare({"heap_allocs_per_sample": 0.0},
                                {"heap_allocs_per_sample": 0.0})
        self.assertEqual(code, 2, out)
        self.assertIn('no "gates"', out)


if __name__ == "__main__":
    unittest.main(verbosity=2)
