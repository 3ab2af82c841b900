#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload (or all).

Run from the repository root:

    python3 perfbench/run.py --workload serve_cross4_80vpm_rsa --seed 1 \
        --seconds 40 --trace 0

The build goes to .bench_build/perfbench (Release, only the simulator's
libraries plus nwade_perfbench); build output goes to stderr, so the last
line of stdout is always the program's JSON result. The build and the run
keep their temporary files in .bench_build/tmp. With --trace 1 the traced
repetition is also written as a Chrome/Perfetto trace under
.bench_build/traces/. Extra flags (--scenario-seed N, --sim-seconds N,
--corrupt-digest, --stall-seconds S, --trace-out PATH) pass through to
nwade_perfbench; see README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "perfbench")
TMP = os.path.join(".bench_build", "tmp")
TRACES = os.path.join(".bench_build", "traces")
RUN_TIMEOUT_S = 170


def build(env):
    """Configures and builds nwade_perfbench; returns its path or None."""
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", "4"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return None
    return os.path.join(BUILD, "nwade_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args, passthrough = parser.parse_known_args()

    os.makedirs(TMP, exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.abspath(TMP))
    program = build(env)
    if program is None:
        return 1
    cmd = [program, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1" and "--trace-out" not in passthrough:
        os.makedirs(TRACES, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            TRACES, "%s-seed%d.json" % (args.workload, args.seed))]
    cmd += passthrough
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: nwade_perfbench exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
