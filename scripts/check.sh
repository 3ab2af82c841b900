#!/usr/bin/env bash
# Full verification sweep: the default tree runs every suite (unit, chaos,
# perf smokes, obs, the soak SIGKILL smoke, campaign CLI, the bench_diff.py
# unittests); the sanitizer trees rebuild the whole stack instrumented and
# run their intended payload, the same labels as the CI jobs of the same
# name. TSan runs the chaos label (fault injection, corrupt-wire fuzzing,
# threaded campaign fan-out, the grid shard fan-out: grid_parallel_test and
# the bench_grid smoke both carry it; see docs/FAULT_MODEL.md,
# docs/CHECKPOINT.md, docs/GRID.md), including RSA grid and campaign runs
# whose concurrent worlds each verify through their own unlocked signature
# cache and write their own unlocked metrics registry and tracer (plain
# single-owner objects), so any of them shared between threads would be
# reported; ASan adds the obs
# and soak labels (the TCP sink machinery, serve's snapshot restore probe and
# resume path); UBSan runs the full suite with UBSAN_OPTIONS=halt_on_error=1,
# so any report fails the test that reached it.
#
#   scripts/check.sh              # default + ASan + TSan + UBSan
#   scripts/check.sh default      # just the default tree
#   scripts/check.sh asan tsan    # just those sanitizer trees
#
# Opt-in perf-regression stage (never part of the default sweep):
#
#   NWADE_BENCH_BASELINE_DIR=/path/to/baselines scripts/check.sh bench-diff
#
# compares every checked-in BENCH_*.json against the same-named envelope in
# the baseline directory via scripts/bench_diff.py. The tolerated regression
# percentage is NWADE_BENCH_DIFF_THRESHOLD (default 10).
#
# Build dirs: build/ (default), build-asan/, build-tsan/, build-ubsan/.
# Existing dirs are reused (incremental); delete one to force a clean
# configure.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 2)"

stages=("$@")
if [[ ${#stages[@]} -eq 0 ]]; then
  stages=(default asan tsan ubsan)
fi

run_tree() { # dir cmake-extra-args... -- ctest-args...
  local dir="$1"; shift
  local cmake_args=()
  while [[ $# -gt 0 && "$1" != "--" ]]; do cmake_args+=("$1"); shift; done
  shift # the --
  cmake -B "$dir" -DCMAKE_BUILD_TYPE=Release "${cmake_args[@]}"
  cmake --build "$dir" -j "$JOBS"
  ctest --test-dir "$dir" --output-on-failure "$@"
}

for stage in "${stages[@]}"; do
  case "$stage" in
    default)
      echo "=== default tree: full suite ==="
      run_tree build --
      ;;
    asan)
      echo "=== ASan tree: chaos + obs + soak suites ==="
      run_tree build-asan -DSANITIZE=address -- -L 'chaos|obs|soak'
      ;;
    tsan)
      echo "=== TSan tree: chaos suite ==="
      run_tree build-tsan -DSANITIZE=thread -- -L chaos
      ;;
    ubsan)
      echo "=== UBSan tree: full suite ==="
      export UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1
      run_tree build-ubsan -DSANITIZE=undefined -- -j "$JOBS"
      ;;
    bench-diff)
      echo "=== bench-diff: BENCH_*.json vs baseline envelopes ==="
      : "${NWADE_BENCH_BASELINE_DIR:?bench-diff needs NWADE_BENCH_BASELINE_DIR=<dir with baseline BENCH_*.json>}"
      threshold="${NWADE_BENCH_DIFF_THRESHOLD:-10}"
      for envelope in BENCH_*.json; do
        baseline="$NWADE_BENCH_BASELINE_DIR/$envelope"
        if [[ ! -f "$baseline" ]]; then
          echo "skip $envelope (no baseline in $NWADE_BENCH_BASELINE_DIR)"
          continue
        fi
        python3 scripts/bench_diff.py "$baseline" "$envelope" \
          --threshold "$threshold" --speedup-threshold "$threshold"
      done
      ;;
    *)
      echo "unknown stage '$stage' (want: default asan tsan ubsan bench-diff)" >&2
      exit 2
      ;;
  esac
done

echo "check.sh: all requested stages passed"
