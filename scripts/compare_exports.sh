#!/usr/bin/env bash
# Cross-commit check of every grid store: builds qperc at REV and from the
# working tree (both Release, in a temporary directory) and runs the same
# grids with each:
#   * the full paper grid (720 conditions) as a campaign, then `campaign
#     export` and `campaign status`;
#   * a sharded fairness grid (2 sites x TCP,QUIC x DSL,LTE x flows 0,4 x
#     mixed, 2 runs) as --shard 0/2 and 1/2, then `--report --export`;
#   * the A/B and the rating study (`study run --kind ab|rating`, 20000
#     participants, 2 sites x 2 runs, seed 7) with `--export`.
# It byte-compares the .qcr/.qfr/.qps stores, the exports, the status and
# report text, the studies' stdout and the commands' stderr (elapsed
# seconds masked), then checks that
# the working tree resumes REV's stores with nothing left to run. A change
# that claims to be bit-exact must pass.
#
#   scripts/compare_exports.sh REV [--runs N] [--seed K] [--jobs J]
#
# Defaults: --runs 31 --seed 7 --jobs 4 (--runs sizes the campaign only;
# the studies always use seed 7).
# Prints each side's campaign wall and CPU seconds, then one line per
# compared file; exits 0 when all are identical, 1 otherwise. REV is any
# git revision of this repository; it is exported with `git archive`, so
# the repository's own state and worktree list are never touched. Needs a
# parent revision, so it is not a ci_gate stage.
set -euo pipefail

usage() { echo "usage: compare_exports.sh REV [--runs N] [--seed K] [--jobs J]" >&2; exit 2; }
[ $# -ge 1 ] || usage
REV=$1
shift
RUNS=31
SEED=7
JOBS=4
while [ $# -gt 0 ]; do
  case "$1" in
    --runs) RUNS=${2:?}; shift 2 ;;
    --seed) SEED=${2:?}; shift 2 ;;
    --jobs) JOBS=${2:?}; shift 2 ;;
    *) usage ;;
  esac
done

ROOT=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
git -C "$ROOT" rev-parse --verify --quiet "$REV^{commit}" > /dev/null || {
  echo "compare_exports: unknown revision '$REV'" >&2; exit 2; }
WORK=$(mktemp -d "${TMPDIR:-/tmp}/qperc_compare.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

build() {  # build SRC_DIR BUILD_DIR
  cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release > "$2.log" 2>&1 &&
    cmake --build "$2" --target qperc -j "$JOBS" >> "$2.log" 2>&1 || {
    echo "compare_exports: build of $1 failed; log:" >&2; tail -20 "$2.log" >&2; exit 1; }
}

echo "== building $REV and the working tree (Release)"
mkdir -p "$WORK/base-src"
git -C "$ROOT" archive --format=tar "$REV" | tar -x -C "$WORK/base-src"
build "$WORK/base-src" "$WORK/base-build"
build "$ROOT" "$WORK/head-build"

GRID=(--runs "$RUNS" --seed "$SEED")
FAIR=(--sites wikipedia.org,apache.org --protocols TCP,QUIC --networks DSL,LTE
      --flows 0,4 --mix mixed --runs 2 --seed "$SEED")
STUDY=(--participants 20000 --sites 2 --runs 2 --seed 7)
for side in base head; do
  qperc="$WORK/$side-build/tools/qperc"
  # Relative paths, so both sides print the same text.
  mkdir -p "$WORK/$side"
  cd "$WORK/$side"
  echo "== $side: campaign run ${GRID[*]} --jobs $JOBS"
  TIMEFORMAT="$side: wall %R s, cpu %U s user + %S s sys"
  time "$qperc" campaign run "${GRID[@]}" --jobs "$JOBS" --quiet --out campaign 2> campaign.log
  "$qperc" campaign export "${GRID[@]}" --out campaign > export.csv
  "$qperc" campaign status "${GRID[@]}" --out campaign > status.txt
  echo "== $side: fairness ${FAIR[*]} as two shards, then --report"
  for shard in 0/2 1/2; do
    "$qperc" fairness "${FAIR[@]}" --shard "$shard" --jobs "$JOBS" --quiet --out fairness \
      2>> fairness.log
  done
  "$qperc" fairness "${FAIR[@]}" --report --export fairness.txt --out fairness \
    > report.txt 2>> fairness.log
  for kind in ab rating; do
    echo "== $side: study run --kind $kind ${STUDY[*]}"
    "$qperc" study run --kind "$kind" "${STUDY[@]}" --jobs "$JOBS" --quiet --out study \
      --export "study_$kind.txt" > "study_$kind.out" 2>> study.log
  done
  sed -i -E 's/ in [0-9.]+ s$/ in - s/' campaign.log fairness.log study.log
done
cd "$WORK"

status=0
if ! diff <(cd base && find . -type f | sort) <(cd head && find . -type f | sort) >&2; then
  echo "the two sides wrote different files" >&2
  status=1
fi
for file in $(cd base && find . -type f | sort); do
  if cmp -s "base/$file" "head/$file"; then
    echo "identical: $file"
  else
    echo "DIFFERS: $file" >&2
    diff "base/$file" "head/$file" | head -6 >&2 || true
    status=1
  fi
done

echo "== head resumes the base stores"
qperc="$WORK/head-build/tools/qperc"
"$qperc" campaign run "${GRID[@]}" --resume --quiet --out base/campaign 2> resume.log
for shard in 0/2 1/2; do
  "$qperc" fairness "${FAIR[@]}" --shard "$shard" --resume --quiet --out base/fairness \
    2>> resume.log
done
if [ "$(grep -c ' 0 executed, 0 failed' resume.log)" -ne 3 ]; then
  echo "head re-ran cells of the base stores:" >&2
  cat resume.log >&2
  status=1
fi
[ "$status" -eq 0 ] && echo "all grid and study outputs identical ($(($(wc -l < head/export.csv) - 1)) conditions)"
exit "$status"
