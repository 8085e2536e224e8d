#!/usr/bin/env bash
# End-to-end exercise of `qperc study run` / `qperc study report`, the
# population-scale streaming pipeline: job count must not change the exported
# bytes, interrupt-then-resume must land on the uninterrupted bytes (and a
# checkpoint with a tampered header must be refused), shard
# splits merged by `study report` must land on the unsharded bytes, a study
# must take its stimuli from the campaign store `campaign run` wrote into the
# same --out without simulating them again, and the CLI must reject
# malformed invocations.
#
#   usage: study_e2e.sh /path/to/qperc
set -euo pipefail

QPERC=${1:?usage: study_e2e.sh /path/to/qperc}
WORKDIR=$(mktemp -d /tmp/qperc_study_e2e.XXXXXX)
trap 'rm -rf "$WORKDIR"' EXIT

# A tiny grid: 2 sites x 5 protocols x 4 networks is 40 conditions, 80
# trials at 2 runs each; 2000 participants over 64-participant blocks still crosses many
# block/round boundaries.
SPEC=(--kind rating --group uworker --participants 2000 --seed 7 --sites 2 --runs 2)

echo "== reference: uninterrupted --jobs 1 run"
"$QPERC" study run "${SPEC[@]}" --jobs 1 --block-size 64 \
  --out "$WORKDIR/ref" --export "$WORKDIR/ref.txt" --quiet > /dev/null

echo "== a study reuses the stimuli \`campaign run\` wrote into its --out"
"$QPERC" campaign run --sites 2 --runs 2 --seed 7 --out "$WORKDIR/shared" --quiet 2> /dev/null
"$QPERC" study run "${SPEC[@]}" --jobs 1 --block-size 64 --out "$WORKDIR/shared" \
  --export "$WORKDIR/shared.txt" --quiet > /dev/null 2> "$WORKDIR/shared.log"
grep -q "stimuli — 40 of 40 conditions reused, 0 executed" "$WORKDIR/shared.log" || {
  echo "FAIL: the study simulated stimuli the campaign store already held" >&2
  cat "$WORKDIR/shared.log" >&2; exit 1
}
cmp "$WORKDIR/ref.txt" "$WORKDIR/shared.txt"

echo "== parallel run must export byte-identical results"
"$QPERC" study run "${SPEC[@]}" --jobs 4 --block-size 64 \
  --out "$WORKDIR/par" --export "$WORKDIR/par.txt" --quiet > /dev/null
cmp "$WORKDIR/ref.txt" "$WORKDIR/par.txt"

echo "== interrupt after 10 of 32 blocks, then --resume the rest"
"$QPERC" study run "${SPEC[@]}" --jobs 2 --block-size 64 --checkpoint-every 2 \
  --max-blocks 10 --out "$WORKDIR/resume" --quiet 2>&1 | grep -q "continue with --resume"
"$QPERC" study run "${SPEC[@]}" --jobs 2 --block-size 64 --resume \
  --out "$WORKDIR/resume" --export "$WORKDIR/resume.txt" --quiet > /dev/null
cmp "$WORKDIR/ref.txt" "$WORKDIR/resume.txt"

echo "== a checkpoint whose header blocks_done was rewound is refused, not resumed"
"$QPERC" study run "${SPEC[@]}" --jobs 2 --block-size 64 --checkpoint-every 2 \
  --max-blocks 10 --out "$WORKDIR/tamper" --quiet 2>&1 | grep -q "continue with --resume"
sed -i '1s/ 10$/ 7/' "$WORKDIR"/tamper/*.qps
head -n 1 "$WORKDIR"/tamper/*.qps | grep -q ' 7$'
"$QPERC" study run "${SPEC[@]}" --jobs 2 --block-size 64 --resume \
  --out "$WORKDIR/tamper" --export "$WORKDIR/tamper.txt" --quiet > /dev/null
cmp "$WORKDIR/ref.txt" "$WORKDIR/tamper.txt"

echo "== shard halves merge to the reference bytes"
"$QPERC" study run "${SPEC[@]}" --shard 1/2 --jobs 2 --block-size 64 \
  --out "$WORKDIR/shards" --quiet > /dev/null
"$QPERC" study run "${SPEC[@]}" --shard 0/2 --jobs 1 --block-size 64 \
  --out "$WORKDIR/shards" --quiet > /dev/null
"$QPERC" study report "${SPEC[@]}" --out "$WORKDIR/shards" \
  --export "$WORKDIR/shards.txt" > /dev/null
cmp "$WORKDIR/ref.txt" "$WORKDIR/shards.txt"

echo "== report refuses an incomplete shard set"
"$QPERC" study run "${SPEC[@]}" --shard 0/3 --jobs 1 --block-size 64 \
  --out "$WORKDIR/partial" --quiet > /dev/null
if "$QPERC" study report "${SPEC[@]}" --out "$WORKDIR/partial" > /dev/null 2>&1; then
  echo "FAIL: report accepted a missing shard" >&2; exit 1
fi

echo "== link-condition overlay: tagged outputs, byte-identical across --jobs"
# A smaller grid: the LTE trace + policer makes each stimulus trial slower.
COND=(--kind rating --group uworker --participants 512 --seed 7 --sites 1 --runs 2 \
  --link-trace lte --link-trace-seed 3 --policer-rate-mbps 4 --policer-burst-kb 32)
"$QPERC" study run "${COND[@]}" --jobs 1 --block-size 64 \
  --out "$WORKDIR/cond" --export "$WORKDIR/cond1.txt" --quiet > /dev/null
"$QPERC" study run "${COND[@]}" --jobs 4 --block-size 64 \
  --out "$WORKDIR/cond" --export "$WORKDIR/cond4.txt" --quiet > /dev/null
cmp "$WORKDIR/cond1.txt" "$WORKDIR/cond4.txt"
# The overlay is part of the file identity: conditioned outputs must not
# collide with (or silently reuse) the unconditioned files of the same spec.
ls "$WORKDIR/cond" | grep -q "_lte3_pol4000000b32768" || {
  echo "FAIL: conditioned outputs missing the link-conditions tag" >&2; exit 1
}

echo "== report reads only its own study's files, not a longer identity"
# population_..._n100 is a prefix of population_..._n1000.
for n in 100 1000; do
  "$QPERC" study run --participants "$n" --sites 1 --runs 1 --jobs 2 \
    --out "$WORKDIR/sizes" --quiet > /dev/null
done
"$QPERC" study report --participants 100 --sites 1 --runs 1 --out "$WORKDIR/sizes" \
  > "$WORKDIR/sizes.txt" 2>&1
grep -q "100 -> " "$WORKDIR/sizes.txt" && ! grep -q "skipping" "$WORKDIR/sizes.txt" || {
  echo "FAIL: report --participants 100 scanned the n1000 checkpoint" >&2
  cat "$WORKDIR/sizes.txt" >&2; exit 1
}

echo "== malformed invocations are rejected"
if "$QPERC" study run --definitely-not-a-flag 2>/dev/null; then
  echo "FAIL: unknown flag was accepted" >&2; exit 1
fi
if "$QPERC" study run --participants banana 2>/dev/null; then
  echo "FAIL: non-numeric --participants was accepted" >&2; exit 1
fi
if "$QPERC" study run --shard nonsense 2>/dev/null; then
  echo "FAIL: malformed --shard was accepted" >&2; exit 1
fi
if "$QPERC" study run --participants 0 2>/dev/null; then
  echo "FAIL: zero --participants was accepted" >&2; exit 1
fi
if "$QPERC" study run --runs 4294967296 2>/dev/null; then
  echo "FAIL: --runs wrapping to zero was accepted" >&2; exit 1
fi
# An unknown --kind or --group is bad input (exit 2), never a silent fallback
# to a uWorker rating study.
expect_usage_error() {
  local status=0
  "$QPERC" "$@" >/dev/null 2>&1 || status=$?
  if [ "$status" -ne 2 ]; then
    echo "FAIL: 'qperc $*' exited $status, expected 2" >&2; exit 1
  fi
}
SMALL=(--participants 64 --sites 1 --runs 1)
# A qualifier without the flag it qualifies is bad input too.
for bad in "kind abx" "group foo" "link-trace-seed 3" "policer-burst-kb 32"; do
  read -r flag value <<< "$bad"
  expect_usage_error study --"$flag" "$value" --sites 1 --runs 1
  expect_usage_error study run --"$flag" "$value" "${SMALL[@]}" --out "$WORKDIR/bad"
  expect_usage_error study report --"$flag" "$value" "${SMALL[@]}" --out "$WORKDIR/bad"
done

echo "study_e2e: OK"
