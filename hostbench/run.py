#!/usr/bin/env python3
"""The bwlab host benchmark (see NOTES.md).

Run from the repository root:

    python3 hostbench/run.py --workload clover2d-tiled --seed 1 --seconds 30 --trace 0

It builds hostbench/ (and with it the repository's src/) into
$CARGO_TARGET_DIR/hostbench, default .bench_build/hostbench, then makes
two processes: the reference solve, and the timed solves (with the STREAM
triad roof probe in a traced run). The last line of standard output is the
result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(and writes the last traced solve as a Chrome trace under the build
directory). Progress and a readable metric table go to standard error.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("clover2d-tiled", "clover2d-mpi")
BENCH_DIR = Path(__file__).resolve().parent
RUN_BUDGET_S = 175  # everything after the build
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"hostbench: {msg}", file=sys.stderr, flush=True)


def call(cmd, timeout):
    """Runs cmd with its stdout captured and stderr passed through; returns
    stdout. Exits without a result if cmd fails or times out."""
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        log(f"timed out after {timeout} s: {' '.join(map(str, cmd))}")
        sys.exit(3)
    if done.returncode != 0:
        log(f"exit code {done.returncode}: {' '.join(map(str, cmd))}")
        sys.exit(3)
    return done.stdout


def last_json(text):
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        log("no output")
        sys.exit(3)
    return json.loads(lines[-1])


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build") / "hostbench"


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not (BENCH_DIR.parent / "src" / "apps" / "app_common.hpp").is_file():
        log(f"no bwlab sources next to {BENCH_DIR}")
        sys.exit(2)
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        call(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
              "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    call(["cmake", "--build", str(out), "-j", "4"], BUILD_TIMEOUT_S)
    return out / "hostbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-checksum", action="store_true",
                    help="perturb every solve's checksum (self-test of the "
                         "correctness gate)")
    args = ap.parse_args()

    exe = str(build())
    deadline = time.monotonic() + RUN_BUDGET_S
    left = lambda: max(1.0, deadline - time.monotonic())
    deck = [f"--workload={args.workload}", f"--seed={args.seed}"]
    ref = last_json(call([exe, "reference", *deck], left()))
    solve = [exe, "solve", *deck,
             f"--seconds={args.seconds}", f"--trace={args.trace}",
             f"--ref-checksum={ref['checksum']!r}"]
    if args.corrupt_checksum:
        solve.append("--corrupt-checksum")
    if args.trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        solve.append(f"--trace-file={traces / f'{args.workload}-seed{args.seed}.json'}")
    result = last_json(call(solve, left()))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
