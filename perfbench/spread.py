#!/usr/bin/env python3
"""Runs one workload over several seeds and reports each metric's spread.

Run from the repository root:

    python3 perfbench/spread.py --workload grid2x2_20vpm_rsa --seeds 1-10

For every end-to-end metric it prints the median of the runs, the distance
between the first and the third quartile (statistics.quantiles, n=4) as a
share of the median, and the metric's bound from BENCHMARK.json. That
spread is what a benchmark run set is judged by: it should stay well under
the bound. Every run must also report correct with no failed operation.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    ok = True
    for seed in parse_seeds(args.seeds):
        t0 = time.monotonic()
        out = subprocess.run(
            bench["command"] + ["--workload", args.workload, "--seed",
                                str(seed), "--seconds",
                                str(bench["run_seconds"]), "--trace",
                                args.trace],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if out.returncode == 0 and lines else {}
        good = result.get("correct") is True and result.get("failed") == 0
        ok = ok and good
        metrics = result.get("metrics", {})
        print("seed %d: %s in %.0f s: %s" % (
            seed, "ok" if good else "FAILED", time.monotonic() - t0,
            " ".join("%s=%.4g" % (k, v["value"]) for k, v in metrics.items())),
            flush=True)
        for name, metric in metrics.items():
            values.setdefault(name, []).append(metric["value"])

    print("%-28s %14s %9s %7s" % ("metric", "median", "IQR/med", "bound"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med] * 3
        share = (q[2] - q[0]) / med if med else 0.0
        bound = bounds.get(name)
        print("%-28s %14.6g %9.4f %7s" % (name, med, share,
                                          "-" if bound is None else bound))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
