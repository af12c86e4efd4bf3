#!/usr/bin/env python3
"""Self-test of the host benchmark, on the benchmark's own decks with
one-second runs; it takes a few minutes. Run from the repository root:

    python3 hostbench/selftest.py

It checks that
  * a clean run of every workload passes the correctness gate and prints
    exactly the end-to-end metrics BENCHMARK.json names;
  * a traced run prints exactly the per-layer metrics, with no dropped
    trace events;
  * a run whose checksums are deliberately corrupted (--corrupt-checksum)
    is reported as failed: correct is false and every solve counts as
    failed.
"""

import json
import subprocess
import sys
from pathlib import Path


def bench(workload, trace, *knobs):
    cmd = [sys.executable, "hostbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), *knobs]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900, check=False)
    if done.returncode != 0:
        sys.exit(f"FAIL: {' '.join(cmd)} exited {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    return cond


def main():
    spec = json.loads(Path("BENCHMARK.json").read_text())
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    good = True
    for w in (x["name"] for x in spec["workloads"]):
        r = bench(w, 0)
        good &= check(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1,
                      f"{w}: clean run passes the correctness gate")
        good &= check(set(r["metrics"]) == e2e, f"{w}: end-to-end metric names")
        t = bench(w, 1)
        good &= check(t["correct"], f"{w}: traced run passes")
        good &= check(set(t["metrics"]) == layers, f"{w}: per-layer metric names")
        good &= check(t["metrics"]["trace.dropped_events"]["value"] == 0,
                      f"{w}: no dropped trace events")
    bad = bench("clover2d-mpi", 0, "--corrupt-checksum")
    good &= check(not bad["correct"] and bad["failed"] == bad["attempted"] > 0,
                  "corrupted checksum is reported as a failure")
    sys.exit(0 if good else 1)


if __name__ == "__main__":
    main()
