#!/usr/bin/env python3
"""Compare two nwade-bench-v1 envelopes phase by phase.

Usage:
    scripts/bench_diff.py BASELINE.json CANDIDATE.json [--threshold PCT]
                          [--speedup-threshold PCT] [--strict]

For every timing phase present in both envelopes, reports the median_ms
delta; for every speedup phase, the speedup_x delta. Exits nonzero when a
timing phase regresses (median grows) by more than --threshold percent, or a
speedup phase shrinks by more than --speedup-threshold percent. Phases
present on only one side are listed but never fail the diff (drivers grow
phases across PRs) unless --strict is given.

Mismatched `hardware_concurrency` downgrades failures to warnings (the
deltas are cross-hardware) unless --strict forces them.

Stdlib only — no third-party imports.
"""

import argparse
import json
import sys


def load_envelope(path):
    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    if data.get("schema") != "nwade-bench-v1":
        raise SystemExit(f"{path}: not an nwade-bench-v1 envelope "
                         f"(schema={data.get('schema')!r})")
    return data


def phases_by_name(env):
    out = {}
    for phase in env.get("phases", []):
        name = phase.get("name")
        if name:
            out[name] = phase
    return out


def fmt_pct(x):
    return f"{x:+.1f}%"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument("--threshold", type=float, default=10.0,
                    help="max tolerated median_ms regression, percent "
                         "(default: 10)")
    ap.add_argument("--speedup-threshold", type=float, default=10.0,
                    help="max tolerated speedup_x shrink, percent "
                         "(default: 10)")
    ap.add_argument("--strict", action="store_true",
                    help="fail on phases present on only one side and on "
                         "cross-hardware regressions")
    args = ap.parse_args()

    base = load_envelope(args.baseline)
    cand = load_envelope(args.candidate)
    base_phases = phases_by_name(base)
    cand_phases = phases_by_name(cand)

    hw_base = base.get("hardware_concurrency")
    hw_cand = cand.get("hardware_concurrency")
    comparable_hw = hw_base == hw_cand

    print(f"baseline:  {args.baseline} (sha {base.get('git_sha')}, "
          f"{hw_base} hw threads)")
    print(f"candidate: {args.candidate} (sha {cand.get('git_sha')}, "
          f"{hw_cand} hw threads)")
    if not comparable_hw:
        print("note: hardware_concurrency differs — timing deltas are "
              "cross-hardware and advisory" +
              (" (strict: still enforced)" if args.strict else ""))

    failures = []
    warnings = []
    only_one_side = sorted(set(base_phases) ^ set(cand_phases))

    for name in sorted(set(base_phases) & set(cand_phases)):
        b, c = base_phases[name], cand_phases[name]
        if "median_ms" in b and "median_ms" in c:
            if b["median_ms"] <= 0:
                continue
            delta = 100.0 * (c["median_ms"] - b["median_ms"]) / b["median_ms"]
            verdict = "ok"
            if delta > args.threshold:
                if comparable_hw or args.strict:
                    verdict = "REGRESSION"
                    failures.append(name)
                else:
                    verdict = "regression? (cross-hardware)"
                    warnings.append(name)
            print(f"  {name}: {b['median_ms']:.2f} ms -> "
                  f"{c['median_ms']:.2f} ms ({fmt_pct(delta)}) {verdict}")
        elif "speedup_x" in b and "speedup_x" in c:
            if b["speedup_x"] <= 0:
                continue
            delta = 100.0 * (c["speedup_x"] - b["speedup_x"]) / b["speedup_x"]
            verdict = "ok"
            if delta < -args.speedup_threshold:
                if comparable_hw or args.strict:
                    verdict = "REGRESSION"
                    failures.append(name)
                else:
                    verdict = "shrunk? (cross-hardware)"
                    warnings.append(name)
            print(f"  {name}: {b['speedup_x']:.3f}x -> "
                  f"{c['speedup_x']:.3f}x ({fmt_pct(delta)}) {verdict}")
        else:
            print(f"  {name}: phase shape changed (timing vs speedup) — "
                  f"skipped")
            warnings.append(name)

    for name in only_one_side:
        side = "baseline" if name in base_phases else "candidate"
        print(f"  {name}: only in {side}")
        if args.strict:
            failures.append(name)
        else:
            warnings.append(name)

    if failures:
        print(f"FAIL: {len(failures)} phase(s) regressed beyond "
              f"{args.threshold:.0f}%: {', '.join(sorted(set(failures)))}")
        return 1
    if warnings:
        print(f"ok with {len(warnings)} advisory note(s)")
    else:
        print("ok: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
