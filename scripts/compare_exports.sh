#!/usr/bin/env bash
# Cross-commit export check: builds qperc at REV and from the working tree
# (both Release, in a temporary directory), runs the full paper grid
# (720 conditions) as a campaign with each, and byte-compares the two
# `campaign export` outputs. A change that claims to be bit-exact must pass.
#
#   scripts/compare_exports.sh REV [--runs N] [--seed K] [--jobs J]
#
# Defaults: --runs 31 --seed 7 --jobs 4. Prints each side's campaign wall
# and CPU seconds, then "exports identical" (exit 0) or the first
# differing line (exit 1). REV is any git revision of this repository; it
# is exported with `git archive`, so the repository's own state and worktree
# list are never touched. Needs a parent revision, so it is not a ci_gate
# stage.
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
for side in base head; do
  qperc="$WORK/$side-build/tools/qperc"
  echo "== $side: campaign run ${GRID[*]} --jobs $JOBS"
  TIMEFORMAT="$side: wall %R s, cpu %U s user + %S s sys"
  time "$qperc" campaign run "${GRID[@]}" --jobs "$JOBS" --quiet --out "$WORK/$side-out"
  "$qperc" campaign export "${GRID[@]}" --out "$WORK/$side-out" > "$WORK/$side.csv"
done

rows=$(($(wc -l < "$WORK/head.csv") - 1))
if cmp -s "$WORK/base.csv" "$WORK/head.csv"; then
  echo "exports identical ($rows conditions)"
else
  echo "exports differ ($rows conditions):" >&2
  cmp "$WORK/base.csv" "$WORK/head.csv" >&2 || true
  diff "$WORK/base.csv" "$WORK/head.csv" | head -6 >&2 || true
  exit 1
fi
