#!/usr/bin/env python3
"""Smoke test of the benchmark itself. Run from the repository root:

    python3 perfbench/smoke_test.py

Runs every workload at a short simulated length (--sim-seconds) in both
modes and checks that each metric BENCHMARK.json names is printed, in the
table and in the JSON line, with its unit; that every run is correct with
no failed operation; that a forced digest mismatch (--corrupt-digest)
is counted in ops_failed instead of being dropped; and that a run which
stops making progress (--stall-seconds 0.05, shorter than one World's
construction) ends with a failed result line instead of hanging. Takes
about two minutes on 4 cores once nwade_perfbench is built.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SIM_SECONDS = "30"
# Runs by name and with --workload all, but BENCHMARK.json does not gate
# it (README.md, "Workloads").
UNGATED = ["paper_matrix_80vpm_rsa"]


def run(bench, workload, trace, *extra):
    cmd = bench["command"] + ["--workload", workload, "--seed", "1",
                              "--seconds", "1", "--trace", trace,
                              "--sim-seconds", SIM_SECONDS, *extra]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True)
    if out.returncode != 0:
        raise AssertionError("%s exited %d\n%s" % (" ".join(cmd),
                                                   out.returncode, out.stderr))
    lines = out.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def printed(table, name):
    """The value printed in the table row for `name`, with its unit."""
    for line in table:
        parts = line.split()
        if parts and parts[0] == name:
            return parts[1:]
    return None


def check_metrics(table, result, expected, where):
    got = result["metrics"]
    for m in expected:
        name, unit = m["name"], m["unit"]
        if name not in got:
            raise AssertionError("%s: %s missing from JSON" % (where, name))
        if got[name]["unit"] != unit:
            raise AssertionError("%s: %s unit %r, expected %r"
                                 % (where, name, got[name]["unit"], unit))
        row = printed(table, name)
        if row is None or row[-1] != unit:
            raise AssertionError("%s: table row for %s is %r"
                                 % (where, name, row))
    extra = set(got) - {m["name"] for m in expected}
    if extra:
        raise AssertionError("%s: unexpected metrics %s" % (where, sorted(extra)))


def ops(table, name):
    row = printed(table, name)
    if row is None or not re.fullmatch(r"\d+", row[0]):
        raise AssertionError("no %s row in the table" % name)
    return int(row[0])


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    for name in [w["name"] for w in bench["workloads"]] + UNGATED:
        for trace, expected in (("0", bench["end_to_end"]),
                                ("1", bench["per_layer"])):
            where = "%s --trace %s" % (name, trace)
            table, result = run(bench, name, trace)
            if result["correct"] is not True or result["failed"] != 0:
                raise AssertionError("%s: not correct: %s" % (where, table))
            if result["attempted"] < 1 or ops(table, "ops") != result["attempted"]:
                raise AssertionError("%s: ops row disagrees with JSON" % where)
            check_metrics(table, result, expected, where)
            print("ok   %s" % where, flush=True)
        table, result = run(bench, name, "0", "--corrupt-digest")
        failed = ops(table, "ops_failed")
        if result["correct"] or failed == 0 or failed != result["failed"]:
            raise AssertionError("%s: forced digest mismatch not counted "
                                 "(ops_failed %d, JSON %s)"
                                 % (name, failed, result["failed"]))
        print("ok   %s --corrupt-digest: %d of %d ops failed"
              % (name, failed, result["attempted"]), flush=True)
        table, result = run(bench, name, "0", "--stall-seconds", "0.05")
        if (result["correct"] is not False or result["failed"] < 1 or
                result["failed"] != result["attempted"] or
                not any(line.split()[:1] == ["FAILED"] for line in table)):
            raise AssertionError("%s: stall not reported as a failed run: %s"
                                 % (name, table))
        print("ok   %s --stall-seconds 0.05: reported as %d failed ops"
              % (name, result["failed"]), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as e:
        print("FAIL %s" % e)
        sys.exit(1)
