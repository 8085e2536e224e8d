#!/usr/bin/env bash
# Lints the top-level docs against the tree: every inline-code reference to a
# file, CLI flag, or QPERC_* environment variable in README.md /
# ARCHITECTURE.md / EXPERIMENTS.md / docs/PERFORMANCE.md must point at
# something that exists.
# Registered as the `check_docs` ctest; run it directly from anywhere:
#
#   scripts/check_docs.sh
#
# Checked token classes (inline backticks only; fenced code blocks are prose
# illustrations and are skipped):
#   * path-like tokens (contain '/' or end in .md/.hpp/.cpp/.sh/.cmake)
#     must exist relative to the repo root,
#   * `--flag` tokens must appear in tools/, bench/, examples/ or scripts/
#     sources (ctest/google-benchmark flags are whitelisted),
#   * `QPERC_*` variables must be read somewhere under src/ bench/ tools/.
# Tokens with spaces, '|', '::', wildcards, URLs, and generated artifacts
# (build/, out/, *.jsonl, .qperc*) are skipped.
set -u

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root" || exit 2

docs="README.md ARCHITECTURE.md EXPERIMENTS.md docs/PERFORMANCE.md"
fail=0

# Prints the inline-backtick tokens of $1 that sit outside ``` fences.
inline_tokens() {
  awk '/^[[:space:]]*```/ { fence = !fence; next } !fence' "$1" |
    grep -o '`[^`]\{1,\}`' | tr -d '`' | sort -u
}

flag_whitelisted() {
  case "$1" in
    --test-dir | --output-on-failure | --benchmark_filter | --benchmark_min_time | \
        --benchmark_repetitions) return 0 ;;
  esac
  return 1
}

for doc in $docs; do
  if [ ! -f "$doc" ]; then
    echo "check_docs: missing doc: $doc"
    fail=1
    continue
  fi

  while IFS= read -r token; do
    case "$token" in
      '' | *' '* | *'|'* | *'::'* | *'*'* | http*://* | build/* | out/* | .qperc* | *.jsonl)
        continue ;;
    esac

    case "$token" in
      --*)
        flag="${token%%=*}"
        flag_whitelisted "$flag" && continue
        if ! grep -rqF -- "$flag" tools bench examples scripts 2>/dev/null; then
          echo "check_docs: $doc references unknown flag: $token"
          fail=1
        fi
        ;;
      QPERC_*)
        var="${token%%=*}"
        if ! grep -rqF -- "$var" src bench tools 2>/dev/null; then
          echo "check_docs: $doc references unknown env var: $token"
          fail=1
        fi
        ;;
      */* | *.md | *.hpp | *.cpp | *.sh | *.cmake)
        if [ ! -e "$token" ]; then
          echo "check_docs: $doc references missing path: $token"
          fail=1
        fi
        ;;
    esac
  done <<EOF
$(inline_tokens "$doc")
EOF
done

# Required sections: docs that other docs/scripts point readers at must not
# silently disappear in a refactor.
require_section() {
  if ! grep -qE "^##? $2\$" "$1" 2>/dev/null; then
    echo "check_docs: $1 missing required section: '$2'"
    fail=1
  fi
}
require_section ARCHITECTURE.md "Simulator internals"
require_section ARCHITECTURE.md "Determinism contract"
require_section ARCHITECTURE.md "Correctness tooling"
require_section ARCHITECTURE.md 'Durable files \(`src/util/durable_file.hpp`\)'
require_section ARCHITECTURE.md 'Population-scale streaming studies \(`src/population`\)'
require_section ARCHITECTURE.md "Shared-bottleneck contention & fairness"
require_section ARCHITECTURE.md "Static analysis: the hot-path purity analyzer"
require_section ARCHITECTURE.md "The link layer: serialization, schedules, and policing"
require_section EXPERIMENTS.md "Benchmarking qperc"
require_section EXPERIMENTS.md "Measuring throughput"
require_section EXPERIMENTS.md "Running the grid as a campaign"
require_section EXPERIMENTS.md "Population-scale studies"
require_section EXPERIMENTS.md "Contention & fairness"
require_section EXPERIMENTS.md "Impairment & torture testing"
require_section EXPERIMENTS.md "Variable-rate links & policing"
# (the argument is an ERE fragment, so the parens are escaped)
require_section EXPERIMENTS.md 'The CI gate \(`scripts/ci_gate.sh`\)'
require_section docs/PERFORMANCE.md "Memory model"
require_section docs/PERFORMANCE.md "Hot-path allocation rules"
require_section docs/PERFORMANCE.md 'The bench baseline \(`BENCH_micro.json`\)'
require_section docs/PERFORMANCE.md "Measuring throughput"

if [ "$fail" -ne 0 ]; then
  echo "check_docs: FAILED"
  exit 1
fi
echo "check_docs: OK ($docs)"
