#!/usr/bin/env bash
# End-to-end exercise of `qperc fairness`, the shared-bottleneck contention
# grid: job count must not change the exported bytes, a deterministic
# interrupt (--max-cells) followed by --resume must land on the one-shot
# bytes, shard halves merged by --report must land on the unsharded bytes,
# and the CLI must reject malformed invocations (a run-only flag on --report
# among them).
#
#   usage: fairness_smoke.sh /path/to/qperc
set -euo pipefail

QPERC=${1:?usage: fairness_smoke.sh /path/to/qperc}
WORKDIR=$(mktemp -d /tmp/qperc_fairness_smoke.XXXXXX)
trap 'rm -rf "$WORKDIR"' EXIT

# A tiny grid (2 sites x {0,2} flows x {cubic,mixed} = 8 cells, 2 runs each)
# that still covers the contended and the flows=0 baseline paths.
SPEC=(--sites wikipedia.org,apache.org --protocols QUIC --networks DSL
      --flows 0,2 --mix cubic,mixed --runs 2 --seed 7)

echo "== reference: uninterrupted --jobs 1 run"
"$QPERC" fairness "${SPEC[@]}" --jobs 1 \
  --out "$WORKDIR/ref" --export "$WORKDIR/ref.txt" --quiet > /dev/null
test -s "$WORKDIR/ref.txt"

echo "== parallel run must export byte-identical results"
"$QPERC" fairness "${SPEC[@]}" --jobs 4 \
  --out "$WORKDIR/par" --export "$WORKDIR/par.txt" --quiet > /dev/null
cmp "$WORKDIR/ref.txt" "$WORKDIR/par.txt"

echo "== interrupt after 3 of 8 cells, then --resume the rest"
"$QPERC" fairness "${SPEC[@]}" --jobs 1 --checkpoint-every 1 --max-cells 3 \
  --out "$WORKDIR/resume" --quiet > /dev/null
"$QPERC" fairness "${SPEC[@]}" --jobs 2 --resume \
  --out "$WORKDIR/resume" --export "$WORKDIR/resume.txt" --quiet \
  > /dev/null 2> "$WORKDIR/resume.log"
grep -q "resuming — 3 cells" "$WORKDIR/resume.log"
cmp "$WORKDIR/ref.txt" "$WORKDIR/resume.txt"

echo "== shard halves merge to the reference bytes"
"$QPERC" fairness "${SPEC[@]}" --shard 1/2 --jobs 2 \
  --out "$WORKDIR/shards" --quiet > /dev/null
"$QPERC" fairness "${SPEC[@]}" --shard 0/2 --jobs 1 \
  --out "$WORKDIR/shards" --quiet > /dev/null
"$QPERC" fairness "${SPEC[@]}" --report --out "$WORKDIR/shards" \
  --export "$WORKDIR/shards.txt" --quiet > /dev/null
cmp "$WORKDIR/ref.txt" "$WORKDIR/shards.txt"

echo "== variable-rate (lte-trace) policed cell is byte-identical across --jobs"
SCHED=(--sites wikipedia.org --protocols QUIC --networks LTE
       --flows 2 --mix cubic --runs 2 --seed 7
       --link-trace lte --link-trace-seed 3 --policer-rate-mbps 4 --policer-burst-kb 32)
"$QPERC" fairness "${SCHED[@]}" --jobs 1 \
  --out "$WORKDIR/sched1" --export "$WORKDIR/sched1.txt" --quiet > /dev/null
test -s "$WORKDIR/sched1.txt"
"$QPERC" fairness "${SCHED[@]}" --jobs 4 \
  --out "$WORKDIR/sched4" --export "$WORKDIR/sched4.txt" --quiet > /dev/null
cmp "$WORKDIR/sched1.txt" "$WORKDIR/sched4.txt"

echo "== report refuses an incomplete shard set"
"$QPERC" fairness "${SPEC[@]}" --shard 0/3 --jobs 1 \
  --out "$WORKDIR/partial" --quiet > /dev/null
if "$QPERC" fairness "${SPEC[@]}" --report --out "$WORKDIR/partial" \
    > /dev/null 2>&1; then
  echo "FAIL: report accepted a missing shard" >&2; exit 1
fi

echo "== malformed invocations are rejected"
if "$QPERC" fairness --definitely-not-a-flag 2>/dev/null; then
  echo "FAIL: unknown flag was accepted" >&2; exit 1
fi
if "$QPERC" fairness --flows banana 2>/dev/null; then
  echo "FAIL: non-numeric --flows was accepted" >&2; exit 1
fi
if "$QPERC" fairness --mix warp 2>/dev/null; then
  echo "FAIL: unknown --mix was accepted" >&2; exit 1
fi
if "$QPERC" fairness --shard nonsense 2>/dev/null; then
  echo "FAIL: malformed --shard was accepted" >&2; exit 1
fi
if "$QPERC" fairness --runs 0 2>/dev/null; then
  echo "FAIL: zero --runs was accepted" >&2; exit 1
fi
if "$QPERC" fairness --runs 4294967296 2>/dev/null; then
  echo "FAIL: --runs wrapping to zero was accepted" >&2; exit 1
fi
# A repeated axis value would simulate, print and export one cell twice:
# bad input, exit 2.
expect_usage_error() {
  local status=0
  "$QPERC" "$@" >/dev/null 2>&1 || status=$?
  if [ "$status" -ne 2 ]; then
    echo "FAIL: 'qperc $*' exited $status, expected 2" >&2; exit 1
  fi
}
expect_usage_error fairness --runs 1 --flows 0,0 --out "$WORKDIR/bad"
expect_usage_error fairness --runs 1 --sites wikipedia.org,wikipedia.org --out "$WORKDIR/bad"
expect_usage_error fairness --runs 1 --flows 0 --mix cubic,cubic --out "$WORKDIR/bad"
expect_usage_error fairness --runs 1 --flows 0 --stagger-ms 0,0 --out "$WORKDIR/bad"
expect_usage_error fairness --runs 1 --flows 0 --protocols QUIC,QUIC --out "$WORKDIR/bad"
# --report only merges and prints: a flag that runs cells is bad input, as on
# `campaign status`/`export`, even where the merge itself would succeed.
for flag in "--shard 1/2" "--jobs 3" "--resume" "--checkpoint-every 2" "--retries 1" \
            "--max-cells 1"; do
  # shellcheck disable=SC2086  # the flag and its value are two words
  expect_usage_error fairness "${SPEC[@]}" --report $flag --out "$WORKDIR/shards"
done

echo "fairness_smoke: OK"
