#!/usr/bin/env bash
# bench_paper smoke (ctest label: perf): the driver exits 0 and prints every
# table with its header and last row, and the fault-tolerance JSON document
# that closes the output parses. The ctest entry sets NWADE_BENCH_ROUNDS=1
# and NWADE_BENCH_DURATION_MS=60000.
#
# usage: bench_paper_smoke.sh BENCH_PAPER_BINARY
set -u

BENCH="$1"

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

fail() {
  echo "bench_paper_smoke: FAIL: $*" >&2
  exit 1
}

"$BENCH" > "$tmpdir/out.txt" 2> "$tmpdir/err.txt" \
  || fail "bench_paper exited $?: $(cat "$tmpdir/err.txt")"

# One title, header and last-row needle per table, in output order.
needles=(
  "Table II: False Alarm Rate (trigger / detection)"
  "Setting         TypeA trig      TypeA det       TypeB trig      TypeB det"
  "IM_V10          "
  "Fig. 4: Detection Rate under Different Vehicle Densities"
  "Setting     20 vpm      40 vpm      60 vpm      80 vpm      100 vpm     120 vpm"
  "Fig. 5: Detection Time"
  "120 vpm                 "
  "Fig. 6: Block Chain Management and Verification (wall clock)"
  "4-way DDI (120)           "
  "Fig. 7: Network Load (total packets by event type)"
  "--- global reports sent (IM) ---"
  "Fig. 8: Traffic Throughput with vs without NWADE"
  "Intersection (density)    no NWADE (vpm)            NWADE (vpm)               overhead                  crossing (s)"
  "3-way roundabout (20)     "
  "Eq. (2)/(3): analytic detection and self-evacuation probabilities"
  "worked example (Section IV-B4)"
  "Ablations: NWADE design choices"
  "[A1] second-group re-verification under majority-vote gaming"
  "[A2] signature scheme vs per-block cost (4-way cross, 80 vpm)"
  "[A3] global-report safety threshold vs V10 false triggers"
  "[A4] vehicle chain-cache depth vs IM conflicting-plan detection"
  "[A5] reservation AIM vs fixed-cycle traffic lights (mean delay)"
  "Extension: mixed autonomous + legacy traffic"
  "60%               "
  "Fault tolerance: detection & throughput vs channel loss severity"
  "channel: bursty_8"
  "0.40      "
)
for needle in "${needles[@]}"; do
  grep -qF -- "$needle" "$tmpdir/out.txt" || fail "missing: $needle"
done

# The JSON document runs from its opening line to the end of the output.
sed -n '/^{"bench": "fault_tolerance"/,$p' "$tmpdir/out.txt" > "$tmpdir/ft.json"
[ -s "$tmpdir/ft.json" ] || fail "no fault-tolerance JSON document"
if command -v python3 > /dev/null; then
  python3 -c '
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["bench"] == "fault_tolerance", doc["bench"]
assert [s["channel"] for s in doc["sweeps"]] == ["uniform", "bursty_8"]
assert all(len(s["points"]) == 6 for s in doc["sweeps"])
' "$tmpdir/ft.json" || fail "fault-tolerance JSON does not parse: $(cat "$tmpdir/ft.json")"
fi

echo "bench_paper_smoke: OK"
