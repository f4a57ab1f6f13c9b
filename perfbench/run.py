#!/usr/bin/env python3
"""End-to-end benchmark of the in-band LB simulator.

    python3 perfbench/run.py --workload fig3 --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the simulator and the benchmark driver
from source (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR or
.bench_build/, runs the benchmark's arithmetic self-test, then runs one
workload and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones; the
readable report, with every ratio's base, goes to stderr. See
perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ("fig3", "churn_noise", "sharded")
CONFIGURE_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 600
RUN_SLACK_S = 120  # beyond --seconds: warm-up, set-up samples, checks


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = Path(target)
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def run_step(cmd, timeout):
    """Runs a build or test step with its output on stderr."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(map(str, cmd))}")
    if done.returncode != 0:
        fail(f"failed ({done.returncode}): {' '.join(map(str, cmd))}")


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no simulator sources (src/CMakeLists.txt) next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").is_file():
        run_step(["cmake", "-S", BENCH_DIR, "-B", out,
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], CONFIGURE_TIMEOUT_S)
    run_step(["cmake", "--build", out, "-j", jobs], BUILD_TIMEOUT_S)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out = build_dir()
    build(out)
    run_step([out / "perfbench_selftest"], 60)

    cmd = [out / "perfbench_driver", "--workload", args.workload,
           "--seed", str(args.seed % 2**63), "--seconds", str(args.seconds),
           "--mode", "traced" if args.trace else "untraced"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        fail("driver timed out")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"driver exited with {done.returncode} and no result")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result: {lines[-1]}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
