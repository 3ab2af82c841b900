#!/usr/bin/env bash
# Soak smoke (ctest label: soak): proves the crash-resume loop end to end.
#
#   1. Reference: an uninterrupted 30-sim-second soak, final digest recorded.
#   2. SIGKILL survival: the same scenario is killed with SIGKILL mid-run
#      (as soon as its first snapshot lands) and rerun to completion; the
#      resumed run must print the reference digest bit for bit.
#   3. Staged restarts: the same scenario run with --max-snapshots 1 in a
#      loop — every invocation resumes the state file, takes one snapshot,
#      and exits — until completion. Deterministic (no timing) and must also
#      reproduce the reference digest.
#   4. Replay: the bundle recorded by the reference run re-executes with a
#      matching digest via examples/replay.
#   5. A misspelt --attack name is rejected with exit 2 before any state
#      file is written (the name would otherwise fall back to benign).
#
# usage: soak_smoke.sh SOAK_BINARY REPLAY_BINARY
set -u

SOAK="$1"
REPLAY="$2"

SCENARIO=(--duration-ms 30000 --snapshot-every-ms 5000 --vpm 60 --seed 9 --chaos)

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
cd "$tmpdir"

fail() {
  echo "soak_smoke: FAIL: $*" >&2
  exit 1
}

digest_of() {
  sed -n 's/^final digest: //p' "$1"
}

# --- 1. reference run ------------------------------------------------------
"$SOAK" --state ref.ckpt "${SCENARIO[@]}" --record-bundle ref.bundle \
  > ref.log 2>&1 || fail "reference run exited $?"
ref_digest="$(digest_of ref.log)"
[ -n "$ref_digest" ] || fail "reference run printed no digest"

# --- 2. SIGKILL mid-run, then resume ---------------------------------------
"$SOAK" --state kill.ckpt "${SCENARIO[@]}" > kill.log 2>&1 &
pid=$!
# Kill as soon as the first snapshot exists. On a machine fast enough to
# finish before the kill lands this degrades into resuming a completed run —
# still digest-checked, just less adversarial.
for _ in $(seq 1 200); do
  [ -f kill.ckpt ] && break
  sleep 0.02
done
kill -9 "$pid" 2> /dev/null
wait "$pid" 2> /dev/null

[ -f kill.ckpt ] || fail "no snapshot survived the SIGKILL"
"$SOAK" --state kill.ckpt > resume.log 2>&1 || fail "resume exited $?"
resumed_digest="$(digest_of resume.log)"
[ "$resumed_digest" = "$ref_digest" ] \
  || fail "digest after SIGKILL+resume: $resumed_digest != $ref_digest"

# --- 3. deterministic staged restarts --------------------------------------
runs=0
while : ; do
  runs=$((runs + 1))
  [ "$runs" -le 20 ] || fail "staged run never completed"
  "$SOAK" --state staged.ckpt "${SCENARIO[@]}" --max-snapshots 1 \
    > staged.log 2>&1 || fail "staged run $runs exited $?"
  grep -q '^final digest: ' staged.log && break
done
[ "$runs" -ge 3 ] || fail "staged loop finished in $runs runs; expected >= 3 restarts"
grep -q '^soak: resumed ' staged.log || fail "staged run never took the resume path"
staged_digest="$(digest_of staged.log)"
[ "$staged_digest" = "$ref_digest" ] \
  || fail "staged digest: $staged_digest != $ref_digest"

# --- 4. replay the recorded bundle -----------------------------------------
"$REPLAY" ref.bundle > replay.log 2>&1 || fail "replay exited $? ($(cat replay.log))"
grep -q 'digest matches recorded run' replay.log || fail "replay did not confirm digest"

# --- 5. unknown attack names are rejected up front -------------------------
"$SOAK" --state typo.ckpt "${SCENARIO[@]}" --attack V9 > typo.log 2>&1
status=$?
[ "$status" -eq 2 ] || fail "--attack V9 exited $status, expected 2"
grep -q "unknown Table I attack setting 'V9'" typo.log || fail "--attack V9: $(cat typo.log)"
[ ! -e typo.ckpt ] || fail "--attack V9 left a state file behind"

echo "soak_smoke: OK (reference digest $ref_digest, $runs staged runs)"
