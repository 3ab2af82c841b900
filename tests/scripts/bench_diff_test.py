#!/usr/bin/env python3
"""Unit tests for scripts/bench_diff.py (stdlib unittest — pytest is not part
of the toolchain image).

Covers the comparison semantics the perf workflow leans on:
  * timing phases regressing beyond --threshold fail, within it pass;
  * speedup phases shrinking beyond --speedup-threshold fail on comparable
    hardware, but downgrade to advisory when either envelope was recorded
    with single_core_host=true (a thread-scaling row from a 1-core host);
  * mismatched hardware_concurrency downgrades timing failures to warnings
    unless --strict re-arms them;
  * phases present on only one side are advisory unless --strict;
  * a non nwade-bench-v1 envelope is rejected with SystemExit.

Run directly (python3 tests/scripts/bench_diff_test.py) or via ctest
(bench_diff_py).
"""

import importlib.util
import json
import os
import sys
import tempfile
import unittest
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "bench_diff.py"
_spec = importlib.util.spec_from_file_location("bench_diff", _SCRIPT)
bench_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_diff)


def envelope(phases, hw=8, single_core=None):
    env = {
        "schema": "nwade-bench-v1",
        "git_sha": "deadbeef",
        "hardware_concurrency": hw,
        "phases": phases,
    }
    if single_core is not None:
        env["single_core_host"] = "true" if single_core else "false"
    return env


class BenchDiffTest(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.addCleanup(self._dir.cleanup)

    def _write(self, name, env):
        path = os.path.join(self._dir.name, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(env, f)
        return path

    def _run(self, base, cand, *extra):
        """Invokes bench_diff.main() with patched argv; returns its exit code."""
        argv = sys.argv
        sys.argv = ["bench_diff.py", self._write("base.json", base),
                    self._write("cand.json", cand), *extra]
        try:
            return bench_diff.main()
        finally:
            sys.argv = argv

    def test_timing_within_threshold_passes(self):
        base = envelope([{"name": "step", "median_ms": 100.0}])
        cand = envelope([{"name": "step", "median_ms": 105.0}])
        self.assertEqual(self._run(base, cand, "--threshold", "10"), 0)

    def test_timing_regression_beyond_threshold_fails(self):
        base = envelope([{"name": "step", "median_ms": 100.0}])
        cand = envelope([{"name": "step", "median_ms": 125.0}])
        self.assertEqual(self._run(base, cand, "--threshold", "10"), 1)

    def test_timing_improvement_passes(self):
        base = envelope([{"name": "step", "median_ms": 100.0}])
        cand = envelope([{"name": "step", "median_ms": 50.0}])
        self.assertEqual(self._run(base, cand), 0)

    def test_speedup_shrink_fails_on_comparable_hardware(self):
        base = envelope([{"name": "scale", "speedup_x": 4.0}])
        cand = envelope([{"name": "scale", "speedup_x": 2.0}])
        self.assertEqual(self._run(base, cand, "--speedup-threshold", "10"), 1)

    def test_speedup_shrink_advisory_on_single_core_host(self):
        # The single_core_host guard rail: a 1-core envelope cannot show
        # scaling, so a shrunk speedup is a note, not a failure.
        base = envelope([{"name": "scale", "speedup_x": 4.0}])
        cand = envelope([{"name": "scale", "speedup_x": 1.0}],
                        single_core=True)
        self.assertEqual(self._run(base, cand), 0)

    def test_speedup_shrink_on_single_core_still_fails_in_strict(self):
        base = envelope([{"name": "scale", "speedup_x": 4.0}])
        cand = envelope([{"name": "scale", "speedup_x": 1.0}],
                        single_core=True)
        self.assertEqual(self._run(base, cand, "--strict"), 1)

    def test_cross_hardware_regression_is_advisory(self):
        base = envelope([{"name": "step", "median_ms": 100.0}], hw=4)
        cand = envelope([{"name": "step", "median_ms": 200.0}], hw=16)
        self.assertEqual(self._run(base, cand), 0)
        self.assertEqual(self._run(base, cand, "--strict"), 1)

    def test_one_sided_phase_advisory_unless_strict(self):
        base = envelope([{"name": "old_phase", "median_ms": 10.0}])
        cand = envelope([{"name": "new_phase", "median_ms": 10.0}])
        self.assertEqual(self._run(base, cand), 0)
        self.assertEqual(self._run(base, cand, "--strict"), 1)

    def test_wrong_schema_rejected(self):
        base = envelope([])
        bad = envelope([])
        bad["schema"] = "something-else"
        with self.assertRaises(SystemExit):
            self._run(base, bad)

    def test_zero_baseline_median_skipped(self):
        # A zero baseline would divide by zero; the diff skips such phases.
        base = envelope([{"name": "step", "median_ms": 0.0}])
        cand = envelope([{"name": "step", "median_ms": 50.0}])
        self.assertEqual(self._run(base, cand), 0)


if __name__ == "__main__":
    unittest.main()
