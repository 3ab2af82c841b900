#!/usr/bin/env bash
# Soak smoke (ctest label: soak): the serve host's checkpoint, resume and
# flag-check paths end to end.
#
#   1. Reference: an uninterrupted 30-sim-second soak (serve --state), final
#      digest recorded.
#   2. SIGKILL survival: the same scenario is killed with SIGKILL mid-run
#      (as soon as its first snapshot lands) and rerun to completion; the
#      resumed run must print the reference digest bit for bit.
#   3. Staged restarts: the same scenario run with --max-snapshots 1 in a
#      loop — every invocation resumes the state file, takes one snapshot,
#      and exits — until completion. Deterministic (no timing) and must also
#      reproduce the reference digest.
#   4. Replay: the bundle recorded by the reference run re-executes with a
#      matching digest via examples/replay.
#   5. Rejected flag sets: each exits 2 with its diagnostic before anything
#      is written (no state file, no stream file). A timeout turns a hang
#      into a failure.
#   6. --kind takes the tokens its usage text names.
#   7. Every output option pointed into a missing directory fails with the
#      campaign CLI's diagnostic before any simulation runs (the run is
#      paced to real time, so simulating first would hit the timeout).
#   8. Lattice: a 2x2 V1 run prints the same final digest at --threads 1
#      and 4 and writes its summary, metrics and trace files; a staged
#      lattice run, resumed with only --state, ends on the uninterrupted
#      digest and leaves a grid checkpoint behind.
#
# usage: soak_smoke.sh SERVE_BINARY REPLAY_BINARY
set -u

SERVE="$1"
REPLAY="$2"

SCENARIO=(--duration-ms 30000 --snapshot-every-ms 5000 --vpm 60 --seed 9 --chaos)
LATTICE=(--rows 2 --cols 2 --attack V1 --attack-shard 0 --vpm 30
         --duration-ms 20000)

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
"$SERVE" --state ref.ckpt "${SCENARIO[@]}" --record-bundle ref.bundle \
  > ref.log 2>&1 || fail "reference run exited $?"
ref_digest="$(digest_of ref.log)"
[ -n "$ref_digest" ] || fail "reference run printed no digest"

# --- 2. SIGKILL mid-run, then resume ---------------------------------------
"$SERVE" --state kill.ckpt "${SCENARIO[@]}" > kill.log 2>&1 &
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
"$SERVE" --state kill.ckpt > resume.log 2>&1 || fail "resume exited $?"
resumed_digest="$(digest_of resume.log)"
[ "$resumed_digest" = "$ref_digest" ] \
  || fail "digest after SIGKILL+resume: $resumed_digest != $ref_digest"

# --- 3. deterministic staged restarts --------------------------------------
runs=0
while : ; do
  runs=$((runs + 1))
  [ "$runs" -le 20 ] || fail "staged run never completed"
  "$SERVE" --state staged.ckpt "${SCENARIO[@]}" --max-snapshots 1 \
    > staged.log 2>&1 || fail "staged run $runs exited $?"
  grep -q '^final digest: ' staged.log && break
done
[ "$runs" -ge 3 ] || fail "staged loop finished in $runs runs; expected >= 3 restarts"
grep -q '^serve: resumed ' staged.log || fail "staged run never took the resume path"
staged_digest="$(digest_of staged.log)"
[ "$staged_digest" = "$ref_digest" ] \
  || fail "staged digest: $staged_digest != $ref_digest"

# --- 4. replay the recorded bundle -----------------------------------------
"$REPLAY" ref.bundle > replay.log 2>&1 || fail "replay exited $? ($(cat replay.log))"
grep -q 'digest matches recorded run' replay.log || fail "replay did not confirm digest"

# --- 5. rejected flag sets -------------------------------------------------
# expect_reject DIAGNOSTIC ARGS...
cases=0
expect_reject() {
  local want="$1"
  shift
  cases=$((cases + 1))
  local log="reject$cases.log"
  timeout 30 "$SERVE" --state "reject$cases.ckpt" \
    --stream-out "reject$cases.stream" --duration-ms 2000 "$@" > "$log" 2>&1
  local status=$?
  [ "$status" -eq 2 ] \
    || fail "'$*' exited $status, expected 2: $(tail -n 3 "$log")"
  grep -qF -- "$want" "$log" || fail "'$*': expected \"$want\", got: $(cat "$log")"
  [ ! -e "reject$cases.ckpt" ] || fail "'$*' left a state file behind"
  [ ! -e "reject$cases.stream" ] || fail "'$*' left a stream file behind"
}
expect_reject "unknown Table I attack setting 'V9'" --attack V9
expect_reject "--vpm and --duration-ms must be positive" --vpm -5
expect_reject "--vpm and --duration-ms must be positive" --rows 1 --cols 2 --vpm -5
expect_reject "--vpm and --duration-ms must be positive" --duration-ms 0
expect_reject "--exchange-ms must be a positive multiple" --rows 2 --cols 2 --exchange-ms 0
expect_reject "--exchange-ms must be a positive multiple" --rows 1 --cols 2 --exchange-ms 150 \
  --cadence-ms 1500 --snapshot-every-ms 3000
expect_reject "--gossip-ms must be a positive multiple" --rows 1 --cols 2 --gossip-ms 1500
expect_reject "a lattice needs --kind cross4" --rows 1 --cols 2 --kind roundabout3
expect_reject "--attack-shard 9 out of range (0..3)" --rows 2 --cols 2 --attack V1 --attack-shard 9
expect_reject "--rows x --cols must be 1..64 shards" --rows 9 --cols 8
expect_reject "--cadence-ms must be a positive multiple" --cadence-ms 150
expect_reject "--snapshot-every-ms must be a positive multiple" --snapshot-every-ms 1500
expect_reject "--record-bundle replays a single world" --rows 1 --cols 2 --record-bundle x.bundle
expect_reject "--summary-out summarises a lattice" --summary-out x.json
expect_reject "cannot be combined with --port/--stream-out" --trace-out x.json
expect_reject "unknown intersection kind '4-way cross'" --kind "4-way cross"

# --- 6. --kind takes its usage tokens ----------------------------------------
"$SERVE" --kind cross4 --duration-ms 2000 > kind.log 2>&1 \
  || fail "--kind cross4 exited $?: $(cat kind.log)"
"$SERVE" --duration-ms 2000 > kind_default.log 2>&1 \
  || fail "default-kind run exited $?"
[ "$(digest_of kind.log)" = "$(digest_of kind_default.log)" ] \
  || fail "--kind cross4 ran something other than the default cross4"

# --- 7. output paths fail before any simulation -----------------------------
for option in --state --stream-out --metrics-out --trace-out --trace-jsonl-out \
              --record-bundle --summary-out; do
  shape=()
  [ "$option" = --summary-out ] && shape=(--rows 1 --cols 2)
  timeout 10 "$SERVE" "${shape[@]}" --duration-ms 600000 --pace 1 \
    "$option" /nonexistent-dir/x > path.log 2>&1
  status=$?
  [ "$status" -eq 1 ] || fail "$option /nonexistent-dir/x exited $status, expected 1"
  grep -q '^cannot write output path /nonexistent-dir/x: ' path.log \
    || fail "$option /nonexistent-dir/x: $(cat path.log)"
done

# --- 8. lattice ---------------------------------------------------------------
"$SERVE" "${LATTICE[@]}" --threads 1 --summary-out lattice.json \
  --metrics-out lattice.metrics.json --trace-out lattice.trace.json \
  --trace-jsonl-out lattice.trace.jsonl > lattice1.log 2>&1 \
  || fail "lattice run exited $?: $(cat lattice1.log)"
lattice_digest="$(digest_of lattice1.log)"
[ -n "$lattice_digest" ] || fail "lattice run printed no digest"
"$SERVE" "${LATTICE[@]}" --threads 4 > lattice4.log 2>&1 \
  || fail "4-thread lattice run exited $?"
[ "$(digest_of lattice4.log)" = "$lattice_digest" ] \
  || fail "lattice digest depends on --threads"
grep -q "\"grid_digest\": \"$lattice_digest\"" lattice.json \
  || fail "summary JSON does not carry the final digest"
grep -q '"aim.plans_scheduled"' lattice.metrics.json \
  || fail "metrics export lacks the registry: $(head -c 200 lattice.metrics.json)"
grep -q 'shard(1,1)' lattice.trace.json || fail "trace export lacks shard streams"
[ -s lattice.trace.jsonl ] || fail "JSONL trace export is empty"

"$SERVE" "${LATTICE[@]}" --state lattice.ckpt --snapshot-every-ms 5000 \
  --max-snapshots 1 > staged_lattice1.log 2>&1 \
  || fail "staged lattice run exited $?"
grep -q '^serve: pausing ' staged_lattice1.log \
  || fail "staged lattice run did not pause"
cp lattice.ckpt lattice.ckpt.orig
# Checks that depend on the source run against the checkpoint, not the flags.
"$SERVE" --state lattice.ckpt --record-bundle x.bundle > bundle.log 2>&1
status=$?
[ "$status" -eq 2 ] || fail "--record-bundle on a lattice checkpoint exited $status"
grep -q -- '--record-bundle replays a single world' bundle.log \
  || fail "--record-bundle on a lattice checkpoint: $(cat bundle.log)"
cmp -s lattice.ckpt lattice.ckpt.orig || fail "a rejected run touched the state file"
"$SERVE" --state lattice.ckpt > staged_lattice2.log 2>&1 \
  || fail "lattice resume exited $?: $(cat staged_lattice2.log)"
grep -q '^serve: resumed ' staged_lattice2.log || fail "lattice state was not resumed"
[ "$(digest_of staged_lattice2.log)" = "$lattice_digest" ] \
  || fail "resumed lattice digest $(digest_of staged_lattice2.log) != $lattice_digest"
head -c 32 lattice.ckpt | grep -qa 'nwade-grid-ckpt-v1' \
  || fail "the lattice state file no longer holds a grid checkpoint"

echo "soak_smoke: OK (reference digest $ref_digest, $runs staged runs," \
  "$cases rejected flag sets, lattice digest $lattice_digest)"
