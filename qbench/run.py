#!/usr/bin/env python3
"""Build and run the qperc benchmark.

    python3 qbench/run.py --workload paper-pipeline|heavy-mix|contended|all \
        --seed N --seconds S --trace 0|1

Configures and builds qbench/ (Release) into .bench_build/ at the repository
root on first use, runs the workload in its own process, echoes its table,
and prints as the last line one JSON object holding the metrics that
BENCHMARK.json lists: the end_to_end ones with --trace 0, the per_layer ones
with --trace 1. `--workload all` runs each workload in turn, each in its own
process. Exits non-zero, without a result line, when the build, the run or a
listed metric is missing.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("paper-pipeline", "heavy-mix", "contended")
RUN_TIMEOUT_S = 170


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("qbench: no qperc sources next to qbench/; nothing to build")
    jobs = str(min(os.cpu_count() or 1, 4))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "qperc_bench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return BUILD / "qperc_bench"


def run_workload(binary, workload, args, listed):
    work_dir = BUILD / "work" / f"{workload}-{os.getpid()}"
    command = [str(binary), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", str(work_dir)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"qbench: {workload} exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    full = json.loads(lines[-1])
    missing = [name for name in listed if name not in full["metrics"]]
    if missing:
        sys.exit(f"qbench: {workload} did not report {', '.join(missing)}")
    result = {key: full[key] for key in ("correct", "attempted", "failed")}
    result["metrics"] = {name: {"value": full["metrics"][name]["value"],
                                "unit": full["metrics"][name]["unit"]}
                         for name in listed}
    print(json.dumps(result), flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    listed = [metric["name"] for metric in spec[kind]]

    start = time.monotonic()
    binary = build()
    print(f"qbench: build ready in {time.monotonic() - start:.1f} s",
          file=sys.stderr)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        run_workload(binary, workload, args, listed)


if __name__ == "__main__":
    try:
        main()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError, KeyError) as error:
        sys.exit(f"qbench: {error}")
