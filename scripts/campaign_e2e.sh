#!/usr/bin/env bash
# End-to-end exercise of `qperc campaign`: interrupt-then-resume must land on
# byte-identical results, `--jobs` must not affect the store, and the CLI must
# reject malformed invocations.
#
#   usage: campaign_e2e.sh /path/to/qperc
set -euo pipefail

QPERC=${1:?usage: campaign_e2e.sh /path/to/qperc}
WORKDIR=$(mktemp -d /tmp/qperc_campaign_e2e.XXXXXX)
trap 'rm -rf "$WORKDIR"' EXIT

# The whole test runs a 2-site x 1-protocol x 2-network grid at 2 runs each.
GRID=(--sites 2 --runs 2 --seed 7 --protocols QUIC --networks DSL,LTE)
STORE=campaign_seed7_runs2.qcr

echo "== reference: uninterrupted --jobs 1 run"
"$QPERC" campaign run "${GRID[@]}" --jobs 1 --out "$WORKDIR/ref" --quiet

echo "== parallel run must be bit-identical to the serial reference"
"$QPERC" campaign run "${GRID[@]}" --jobs 4 --out "$WORKDIR/par" --quiet
cmp "$WORKDIR/ref/$STORE" "$WORKDIR/par/$STORE"

echo "== interrupt after 2 of 4 conditions, then --resume the rest"
"$QPERC" campaign run "${GRID[@]}" --jobs 2 --checkpoint-every 1 --max-tasks 2 \
  --out "$WORKDIR/resume" --quiet
"$QPERC" campaign status "${GRID[@]}" --out "$WORKDIR/resume" \
  | grep -q "completed: 2 / 4 conditions"
"$QPERC" campaign run "${GRID[@]}" --jobs 2 --resume --out "$WORKDIR/resume" --quiet
cmp "$WORKDIR/ref/$STORE" "$WORKDIR/resume/$STORE"

echo "== status and export see the completed grid"
"$QPERC" campaign status "${GRID[@]}" --out "$WORKDIR/resume" \
  | grep -q "completed: 4 / 4 conditions"
"$QPERC" campaign export "${GRID[@]}" --out "$WORKDIR/ref" > "$WORKDIR/ref.csv"
"$QPERC" campaign export "${GRID[@]}" --out "$WORKDIR/resume" > "$WORKDIR/resume.csv"
cmp "$WORKDIR/ref.csv" "$WORKDIR/resume.csv"
# Header + one row per grid cell.
test "$(wc -l < "$WORKDIR/ref.csv")" -eq 5

echo "== sharded runs merge to the same grid"
"$QPERC" campaign run "${GRID[@]}" --shard 0/2 --jobs 1 --out "$WORKDIR/shards" --quiet
"$QPERC" campaign run "${GRID[@]}" --shard 1/2 --jobs 1 --out "$WORKDIR/shards" --quiet
"$QPERC" campaign export "${GRID[@]}" --out "$WORKDIR/shards" > "$WORKDIR/shards.csv"
cmp "$WORKDIR/ref.csv" "$WORKDIR/shards.csv"

echo "== trace counters are observation-only: default and --no-counters exports match"
# TCP over DSL/LTE: a grid with droptail overflow, where admission decisions
# at a serialization boundary show up in the results.
COUNTED=(--sites 2 --runs 2 --seed 7 --protocols TCP --networks DSL,LTE)
"$QPERC" campaign run "${COUNTED[@]}" --jobs 2 --out "$WORKDIR/counted" --quiet
"$QPERC" campaign run "${COUNTED[@]}" --jobs 2 --no-counters --out "$WORKDIR/uncounted" --quiet
"$QPERC" campaign export "${COUNTED[@]}" --out "$WORKDIR/counted" > "$WORKDIR/counted.csv"
"$QPERC" campaign export "${COUNTED[@]}" --out "$WORKDIR/uncounted" > "$WORKDIR/uncounted.csv"
cmp "$WORKDIR/counted.csv" "$WORKDIR/uncounted.csv"

echo "== malformed invocations are rejected"
if "$QPERC" campaign run --definitely-not-a-flag 2>/dev/null; then
  echo "FAIL: unknown flag was accepted" >&2; exit 1
fi
if "$QPERC" campaign run --jobs banana 2>/dev/null; then
  echo "FAIL: non-numeric --jobs was accepted" >&2; exit 1
fi
if "$QPERC" campaign run --shard nonsense 2>/dev/null; then
  echo "FAIL: malformed --shard was accepted" >&2; exit 1
fi

echo "campaign_e2e: OK"
