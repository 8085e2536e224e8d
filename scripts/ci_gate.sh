#!/usr/bin/env bash
# The full correctness gate, chaining every static and dynamic check in
# dependency order:
#
#   1. determinism lint   scripts/lint_determinism.py --self-test
#   2. hot-path analyzer  scripts/analyze_hotpath.py: fixture self-test, then
#                         the full-tree call-graph scan (alloc-freedom,
#                         purity, stack-budget ratchet) on the shared Release
#                         build's objects
#   3. clang-tidy         scripts/run_clang_tidy.sh (skips if not installed)
#   4. sanitizer matrix   scripts/sanitize_matrix.sh (ASan+UBSan, TSan,
#                         release-with-invariants)
#   5. torture            `qperc torture --seed 1 --grid full` on a Release
#                         build (impairment sweep: liveness + invariants +
#                         byte conservation; ~45 s on 4 vCPUs — the small
#                         grid never reached the QUIC flow-control deadlock)
#   6. bench smoke        scripts/bench_baseline.sh --smoke on a -Werror
#                         release build
#   7. study e2e          scripts/study_e2e.sh on the same build: streaming
#                         studies must export byte-identical results across
#                         job counts, checkpoint/kill/resume cycles, and
#                         shard splits merged in any order
#   8. fairness smoke     scripts/fairness_smoke.sh on the same build: the
#                         contention grid must export byte-identical results
#                         across job counts, interrupt/resume, and shard
#                         merges
#   9. alloc ratchet      scripts/bench_baseline.sh --ratchet on the same
#                         build: allocations/trial and the other machine-
#                         independent invariants must not regress past
#                         BENCH_micro.json (timings are ignored)
#
#   scripts/ci_gate.sh [--jobs N] [--skip STAGE[,STAGE...]]
#
# Stages run in order; the first failure stops the gate. Registered as the
# opt-in `ci_gate` ctest via -DQPERC_ENABLE_CI_GATE=ON (see EXPERIMENTS.md);
# opt-in because the matrix rebuilds the tree several times over.
#
# Stages 2 and 6-9 share one Release build (build-gate-release) instead of
# rebuilding four times. The reuse is guarded by a freshness check: a stage
# only trusts the existing binaries if nothing under the source tree is newer
# than they are, otherwise it reconfigures and rebuilds. (The gate used to
# key reuse on the binary merely existing, which silently ran stale binaries
# against new sources when stages were re-run or skipped around.)
set -u

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root" || exit 2

jobs="$(nproc 2>/dev/null || echo 1)"
skip=""
while [ $# -gt 0 ]; do
  case "$1" in
    --jobs) jobs="$2"; shift 2 ;;
    --skip) skip="$2"; shift 2 ;;
    *) echo "ci_gate: unknown argument: $1" >&2; exit 2 ;;
  esac
done

skipped() { case ",$skip," in *",$1,"*) return 0 ;; *) return 1 ;; esac; }

stage() {
  name="$1"
  shift
  if skipped "$name"; then
    echo "ci_gate: ---- $name: SKIP (requested) ----"
    return 0
  fi
  echo "ci_gate: ---- $name ----"
  if ! "$@"; then
    echo "ci_gate: $name FAILED" >&2
    exit 1
  fi
}

# True when $1 exists and no file under the source tree is newer than it.
release_binary_fresh() {
  [ -x "$1" ] || return 1
  [ -z "$(find src tests bench tools examples scripts CMakeLists.txt \
            -type f -newer "$1" -print -quit 2>/dev/null)" ]
}

# Builds (or freshens) the one Release tree the analyzer/bench/study/fairness/
# ratchet stages share. Cheap when already up to date: two stat sweeps.
ensure_release_build() {
  build_dir="build-gate-release"
  if release_binary_fresh "$build_dir/tools/qperc" &&
     release_binary_fresh "$build_dir/bench/bench_micro_perf"; then
    return 0
  fi
  # Gate builds keep -Werror at its default ON: a warning-clean tree is part
  # of the contract (use -DQPERC_WERROR=OFF locally as the escape hatch).
  echo "ci_gate: (re)building $build_dir"
  cmake -S . -B "$build_dir" -DCMAKE_BUILD_TYPE=Release -DQPERC_WERROR=ON > /dev/null || return 1
  cmake --build "$build_dir" -j "$jobs" > /dev/null || return 1
}

stage lint scripts/lint_determinism.py --self-test

analyze_stage() {
  # Hot-path purity analyzer: first the checked-in fixtures (every rule must
  # fire; QPERC_COLD_PATH and allowlist suppression must hold), then the
  # full-tree scan over the Release objects, including the worst-case
  # hot-path stack ratchet against BENCH_micro.json (schema v5).
  scripts/analyze_hotpath.py --self-test || return 1
  ensure_release_build || return 1
  scripts/analyze_hotpath.py --build-dir build-gate-release --ratchet || return 1
}
stage analyze analyze_stage

stage tidy scripts/run_clang_tidy.sh --jobs "$jobs"
stage sanitize scripts/sanitize_matrix.sh --jobs "$jobs"

torture_stage() {
  # Impairment torture sweep on a Release build: the full grid must finish
  # with zero CHECK violations, zero hung or deadlocked trials, and exact
  # byte conservation. (The torture_smoke ctest keeps the small grid.)
  build_dir="build-gate-torture"
  cmake -S . -B "$build_dir" -DCMAKE_BUILD_TYPE=Release -DQPERC_WERROR=ON > /dev/null || return 1
  cmake --build "$build_dir" -j "$jobs" --target qperc > /dev/null || return 1
  "$build_dir/tools/qperc" torture --seed 1 --grid full --quiet || return 1
  rm -rf "$build_dir"
}
stage torture torture_stage

bench_stage() {
  ensure_release_build || return 1
  scripts/bench_baseline.sh --smoke --bench build-gate-release/bench/bench_micro_perf || return 1
}
stage bench bench_stage

study_stage() {
  # Streaming-study end-to-end on the shared release build: byte-identical
  # exports across job counts, checkpoint/kill/resume, and shard merges.
  ensure_release_build || return 1
  scripts/study_e2e.sh build-gate-release/tools/qperc || return 1
}
stage study study_stage

fairness_stage() {
  # Contention-grid end-to-end on the shared release build: byte-identical
  # exports across job counts, interrupt/resume, and shard merges.
  ensure_release_build || return 1
  scripts/fairness_smoke.sh build-gate-release/tools/qperc || return 1
}
stage fairness fairness_stage

ratchet_stage() {
  # Allocation ratchet: the machine-independent invariants in BENCH_micro.json
  # (allocations/trial, steady-state scheduler allocs, re-arm queue depth)
  # must not regress. A new allocation on the trial hot path fails here even
  # on a CI box whose timings are useless.
  ensure_release_build || return 1
  scripts/bench_baseline.sh --ratchet --bench build-gate-release/bench/bench_micro_perf || return 1
  rm -rf build-gate-release
}
stage ratchet ratchet_stage

echo "ci_gate: OK"
