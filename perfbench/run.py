#!/usr/bin/env python3
"""Builds the GEA benchmark binary from source and runs one workload.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 25 --trace 0

Run from the repository root. The binary is built with CMake under
.bench_build/ (the first run compiles the GEA libraries, later runs only
relink). Build output goes to stderr; stdout carries the host fingerprint
line and, last, the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every run is also appended to .bench_build/results.jsonl, which
compare.py reads.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "gea_perfbench")
RESULTS = os.path.join(BUILD_ROOT, "results.jsonl")
# One run must end within 180 s; the binary's request watchdog fires first.
RUN_TIMEOUT_S = 170
BUILD_JOBS = str(min(os.cpu_count() or 1, 4))


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    compile_cmd = ["cmake", "--build", BUILD, "--target", "gea_perfbench",
                   "-j", BUILD_JOBS]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(BUILD_ROOT, "work")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        fail("benchmark exited with %d" % proc.returncode)
    result = json.loads(lines[-1])
    fingerprint = None
    for line in lines[:-1]:
        record = json.loads(line)
        if "fingerprint" in record:
            fingerprint = record["fingerprint"]

    names = expected_metrics(args.trace)
    if names is not None and sorted(names) != sorted(result["metrics"]):
        fail("benchmark metrics %s do not match BENCHMARK.json %s"
             % (sorted(result["metrics"]), sorted(names)))

    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(RESULTS, "a") as f:
        f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                            "seconds": args.seconds, "trace": args.trace,
                            "time": time.time(), "fingerprint": fingerprint,
                            "result": result}) + "\n")
    for line in lines:
        print(line)
    sys.exit(0)


if __name__ == "__main__":
    main()
