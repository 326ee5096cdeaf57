#!/usr/bin/env python3
"""Build and run one perfbench workload; print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository. The first run configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench; later runs
reuse that build. The driver's report goes to stdout, and the last line of
stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end_to_end metrics of BENCHMARK.json with --trace 0 and its
per_layer metrics with --trace 1. A per-layer metric of a layer the workload
never calls (e.g. sim.* on mem_ud_erasure) reads 0 and is listed as not
exercised. Workloads the driver knows but BENCHMARK.json does not list
(tcp_rc) run the same way.
Every run also leaves its full result, with sample counts, ratio bases and
the host-speed diagnostic, in .bench_build/perfbench-results/.
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_build", "perfbench-results")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found")
    with open(spec_path) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(
        RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", stem + ".spans.json"]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    try:
        full = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"driver exited {proc.returncode} without a result")
    for line in lines[:-1]:
        print(line)
    full["elapsed_s"] = time.monotonic() - start
    with open(stem + ".json", "w") as f:
        json.dump(full, f, indent=1)

    correct = bool(full["correct"]) and proc.returncode == 0
    metrics, missing = {}, []
    for m in wanted:
        got = full["metrics"].get(m["name"])
        if got is None:
            if correct and not args.trace:
                fail(f"driver did not report {m['name']}")
            missing.append(m["name"])
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']!r}, expected {m['unit']!r}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    if missing:
        print(f"  not exercised by {args.workload} (reported as 0): "
              + ", ".join(missing))

    print(json.dumps({"correct": correct, "attempted": full["attempted"],
                      "failed": full["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
