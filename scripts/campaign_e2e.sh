#!/usr/bin/env bash
# End-to-end exercise of `qperc campaign`: interrupt-then-resume must land on
# byte-identical results, `--jobs` must not affect the store, status/export
# must honour the grid filters, and the CLI must reject malformed invocations.
#
#   usage: campaign_e2e.sh /path/to/qperc
set -euo pipefail

QPERC=${1:?usage: campaign_e2e.sh /path/to/qperc}
QPERC="$(cd "$(dirname "$QPERC")" && pwd)/$(basename "$QPERC")"  # some checks cd
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
# A --runs 21 store shares the text "campaign_seed7_runs2" but is another
# campaign: status --runs 2 must not count or open it.
"$QPERC" campaign run --sites 1 --runs 21 --seed 7 --protocols QUIC --networks DSL \
  --jobs 2 --out "$WORKDIR/resume" --quiet
test -f "$WORKDIR/resume/campaign_seed7_runs21.qcr"
"$QPERC" campaign status "${GRID[@]}" --out "$WORKDIR/resume" > "$WORKDIR/status.txt" 2>&1
grep -qF "(1 checkpoint file(s)" "$WORKDIR/status.txt" && ! grep -q "skipping" "$WORKDIR/status.txt" || {
  echo "FAIL: status --runs 2 scanned the --runs 21 store" >&2; cat "$WORKDIR/status.txt" >&2; exit 1
}
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

echo "== status and export restrict a wider store to the requested grid"
"$QPERC" campaign run --sites 2 --runs 2 --seed 7 --protocols TCP,QUIC --networks DSL,LTE \
  --jobs 2 --out "$WORKDIR/wide" --quiet
SUB=(--sites 1 --runs 2 --seed 7 --protocols TCP --networks DSL)
"$QPERC" campaign status "${SUB[@]}" --out "$WORKDIR/wide" > "$WORKDIR/sub_status.txt"
grep -q "completed: 1 / 1 conditions" "$WORKDIR/sub_status.txt" || {
  echo "FAIL: filtered status counts conditions outside the grid" >&2
  cat "$WORKDIR/sub_status.txt" >&2; exit 1
}
"$QPERC" campaign export "${SUB[@]}" --out "$WORKDIR/wide" > "$WORKDIR/sub.csv"
test "$(wc -l < "$WORKDIR/sub.csv")" -eq 2 || {
  echo "FAIL: filtered export has rows outside the grid" >&2; cat "$WORKDIR/sub.csv" >&2; exit 1
}
grep -q ",TCP,DSL," "$WORKDIR/sub.csv"

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
# A run count of 0, or one that wraps to 0 in 32 bits, is bad input (exit 2),
# never a crash.
expect_usage_error() {
  local status=0
  "$QPERC" "$@" >/dev/null 2>&1 || status=$?
  if [ "$status" -ne 2 ]; then
    echo "FAIL: 'qperc $*' exited $status, expected 2" >&2; exit 1
  fi
}
for runs in 0 4294967296; do
  expect_usage_error campaign run --runs "$runs" --out "$WORKDIR/bad"
  expect_usage_error video --runs "$runs"
done
# A repeated grid value would run one condition twice and store it once,
# leaving status at "completed: 1 / 2" forever.
expect_usage_error campaign run --sites 1 --runs 1 --protocols TCP,TCP --networks DSL \
  --out "$WORKDIR/bad"
expect_usage_error campaign run --sites 1 --runs 1 --protocols TCP --networks DSL,LTE,DSL \
  --out "$WORKDIR/bad"
expect_usage_error campaign status --sites 1 --runs 1 --protocols QUIC,QUIC --out "$WORKDIR/ref"
# Campaign trials run untraced, so there is no --no-counters; status/export
# merge every shard file, so they take no --shard.
expect_usage_error campaign run "${GRID[@]}" --no-counters --out "$WORKDIR/bad"
expect_usage_error campaign status "${GRID[@]}" --shard 0/2 --out "$WORKDIR/ref"
expect_usage_error campaign export "${GRID[@]}" --shard 0/2 --out "$WORKDIR/ref"
# A value flag needs its value: a bare one is never read as the string "true"
# (that wrote a catalog file named `true` into the working directory).
(cd "$WORKDIR" && expect_usage_error catalog --export)
expect_usage_error campaign export "${GRID[@]}" --out
expect_usage_error trial --trace
# A boolean flag takes no value, so a token after it is a stray argument.
expect_usage_error campaign run "${GRID[@]}" --quiet stray --out "$WORKDIR/bad"
expect_usage_error campaign run "${GRID[@]}" --resume stray --out "$WORKDIR/bad"
# Numbers parse whole: no trailing junk, no extra '/' part, no u32 wrap.
expect_usage_error campaign run "${GRID[@]}" --shard 0/1junk --out "$WORKDIR/bad"
expect_usage_error campaign run "${GRID[@]}" --shard 0/2/3 --out "$WORKDIR/bad"
expect_usage_error campaign run "${GRID[@]}" --retries 4294967296 --out "$WORKDIR/bad"
expect_usage_error trial --rate-schedule 0:5abc

echo "== bench throughput --seed sets only the trial seed, never the page"
mean_plt() {
  "$QPERC" bench throughput --trials 5 "$@" | sed -n 4p | awk -F'|' '{print $5}'
}
test "$(mean_plt)" = "$(mean_plt --seed 1)" || {
  echo "FAIL: bench throughput --seed 1 measured a different page than the default" >&2
  exit 1
}

echo "campaign_e2e: OK"
