#!/usr/bin/env bash
# Runs bench_micro_perf in JSON mode and compares the emitted metrics
# against the checked-in baseline (BENCH_micro.json at the repo root).
#
#   scripts/bench_baseline.sh [--bench PATH] [--smoke] [--update] [--tolerance PCT]
#
#   (default)    run full iterations, diff against BENCH_micro.json:
#                timing metrics must be within --tolerance percent (default
#                200 — machines vary; regressions we care about are 2x+),
#                invariant metrics (steady-state allocations, re-arm queue
#                depth) must match exactly.
#   --smoke      run at 1 iteration and only validate the JSON schema
#                (qperc-bench-micro-v6 with every expected metric present
#                and finite). Registered as the `bench_smoke` ctest.
#   --ratchet    run full iterations but compare only the machine-independent
#                invariants (steady-state scheduler allocations exactly;
#                allocations_per_trial and rearm_queue_depth_max as ratchets:
#                current <= baseline). Timings are ignored, so this is safe
#                for CI boxes of any speed — scripts/ci_gate.sh runs it.
#                The baseline must also carry the analyzer's ratcheted
#                hot-path stack budget (analyzer.hot_path_stack_bytes, new in
#                schema v5); the value itself is enforced by
#                scripts/analyze_hotpath.py --ratchet against fresh objects.
#   --update     run full iterations and rewrite the bench-owned parts of
#                BENCH_micro.json, preserving the analyzer section (owned by
#                scripts/analyze_hotpath.py --write-baseline).
#   --bench PATH path to the bench_micro_perf binary
#                (default: build/bench/bench_micro_perf).
set -u

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root" || exit 2

bench="build/bench/bench_micro_perf"
mode="compare"
tolerance=200
while [ $# -gt 0 ]; do
  case "$1" in
    --bench) bench="$2"; shift 2 ;;
    --smoke) mode="smoke"; shift ;;
    --ratchet) mode="ratchet"; shift ;;
    --update) mode="update"; shift ;;
    --tolerance) tolerance="$2"; shift 2 ;;
    *) echo "bench_baseline: unknown argument: $1" >&2; exit 2 ;;
  esac
done

if [ ! -x "$bench" ]; then
  echo "bench_baseline: benchmark binary not found: $bench (build first)" >&2
  exit 2
fi

out="$(mktemp /tmp/qperc_bench_micro.XXXXXX.json)"
trap 'rm -f "$out"' EXIT

if [ "$mode" = "smoke" ]; then
  "$bench" --qperc_json "$out" --qperc_iters 1 > /dev/null || exit 1
else
  "$bench" --qperc_json "$out" > /dev/null || exit 1
fi

if [ "$mode" = "update" ]; then
  # Merge, don't copy: the analyzer section (hot-path stack budget) is owned
  # by scripts/analyze_hotpath.py --write-baseline and must survive a bench
  # re-baseline.
  python3 - "$out" <<'PY' || exit 1
import json, sys
with open(sys.argv[1]) as f:
    current = json.load(f)
try:
    with open("BENCH_micro.json") as f:
        previous = json.load(f)
except (OSError, ValueError):
    previous = {}
if "analyzer" in previous:
    current["analyzer"] = previous["analyzer"]
with open("BENCH_micro.json", "w") as f:
    json.dump(current, f, indent=2)
    f.write("\n")
PY
  echo "bench_baseline: wrote BENCH_micro.json (bench metrics; analyzer section preserved)"
  exit 0
fi

baseline="BENCH_micro.json"
if [ "$mode" != "smoke" ] && [ ! -f "$baseline" ]; then
  echo "bench_baseline: missing $baseline (run with --update to create it)" >&2
  exit 1
fi

MODE="$mode" TOLERANCE="$tolerance" BASELINE="$baseline" python3 - "$out" <<'PY'
import json, math, os, sys

METRICS = [
    "ns_per_schedule",
    "ns_per_rearm",
    "scheduler_events_per_sec",
    "scheduler_allocs_steady_state",
    "rearm_queue_depth_max",
    "ns_per_page_load_trial",
    "ns_per_scheduled_trial",
    "ns_per_multiflow_trial",
    "trials_per_sec",
    "allocations_per_trial",
    "trace_events_per_trial",
    "participants_per_sec",
    "bytes_per_participant",
]
# Hard invariants — allocation counts and queue-depth bounds, not
# machine-dependent timings: compared exactly regardless of --tolerance.
# allocations_per_trial is a ratchet: lower than baseline is fine (re-run
# with --update to bank the improvement), higher fails.
EXACT = ["scheduler_allocs_steady_state", "rearm_queue_depth_max",
         "allocations_per_trial", "bytes_per_participant"]
# Ratcheted upper bounds (current <= baseline passes) vs strict equality.
# bytes_per_participant guards the population engine's O(1)-memory contract:
# heap traffic per streamed participant may shrink but never grow. It is
# marginal (heap bytes of a 2N- minus an N-participant run, over N), so the
# per-run setup cancels out.
RATCHET = {"rearm_queue_depth_max", "allocations_per_trial",
           "bytes_per_participant"}

def load(path, expect_analyzer=False):
    with open(path) as f:
        doc = json.load(f)
    schema = doc.get("schema")
    if schema == "qperc-bench-micro-v4" and expect_analyzer:
        sys.exit("bench_baseline: BENCH_micro.json is schema v4, which predates the "
                 "hot-path analyzer. Upgrade the baseline: re-run "
                 "scripts/bench_baseline.sh --update with a current bench binary, then "
                 "scripts/analyze_hotpath.py --build-dir <release-build> --write-baseline "
                 "to bank analyzer.hot_path_stack_bytes.")
    if schema == "qperc-bench-micro-v5":
        sys.exit("bench_baseline: BENCH_micro.json is schema v5, which predates the "
                 "ns_per_scheduled_trial metric (variable-rate links). Upgrade the "
                 "baseline: re-run scripts/bench_baseline.sh --update with a current "
                 "bench binary (the analyzer section is preserved automatically).")
    if schema != "qperc-bench-micro-v6":
        sys.exit(f"bench_baseline: bad schema in {path}: {schema!r}")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        sys.exit(f"bench_baseline: {path} has no metrics object")
    for key in METRICS:
        value = metrics.get(key)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            sys.exit(f"bench_baseline: {path} metric {key} missing or not finite: {value!r}")
    if expect_analyzer:
        stack = doc.get("analyzer", {}).get("hot_path_stack_bytes")
        if not isinstance(stack, int) or stack <= 0:
            sys.exit("bench_baseline: BENCH_micro.json (schema v5) is missing "
                     "analyzer.hot_path_stack_bytes — run scripts/analyze_hotpath.py "
                     "--build-dir <release-build> --write-baseline to bank the hot-path "
                     "stack budget.")
        print(f"bench_baseline: ok   {'hot_path_stack_bytes':32s} baseline={stack:<14g} "
              "(enforced by scripts/analyze_hotpath.py --ratchet)")
    return metrics

current = load(sys.argv[1])
if os.environ["MODE"] == "smoke":
    print("bench_baseline: smoke OK (schema qperc-bench-micro-v6, "
          f"{len(METRICS)} metrics present)")
    sys.exit(0)

baseline = load(os.environ["BASELINE"], expect_analyzer=True)
tolerance = float(os.environ["TOLERANCE"])
ratchet_only = os.environ["MODE"] == "ratchet"
failed = False
for key in METRICS:
    base, cur = baseline[key], current[key]
    if key in EXACT:
        ok = cur <= base if key in RATCHET else cur == base
        verdict = "ratchet" if key in RATCHET else "exact"
    elif ratchet_only:
        continue  # timings are machine-dependent; the gate skips them
    else:
        delta = abs(cur - base) / base * 100.0 if base else 0.0
        ok = delta <= tolerance
        verdict = f"{delta:+.1f}% vs ±{tolerance:.0f}%"
    status = "ok" if ok else "FAIL"
    print(f"bench_baseline: {status:4s} {key:32s} baseline={base:<14g} current={cur:<14g} ({verdict})")
    failed |= not ok

sys.exit(1 if failed else 0)
PY
status=$?
if [ "$status" -eq 0 ] && [ "$mode" != "smoke" ]; then
  echo "bench_baseline: OK ($mode)"
fi
exit "$status"
