#!/usr/bin/env python3
"""Compares two sets of benchmark results, e.g. a parent and a change.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds records as run.py appends them to
.bench_build/results.jsonl. Results are only comparable when they were
measured on the same host and build: every record of both files must carry
the same fingerprint (nproc, CPU model, compiler, build type), or the
comparison is refused (exit 2).

For every workload and end-to-end metric it prints both medians, each
side's quartile spread, and whether the new median is worse than the base
by more than the metric's bound in BENCHMARK.json (exit 1 if any is).
Per-layer metrics from traced runs are listed by median, without a verdict.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def spread(values):
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("nan")


def collect(records, trace):
    out = {}
    for record in records:
        if record["trace"] != trace or not record["result"]["correct"]:
            continue
        for name, metric in record["result"]["metrics"].items():
            out.setdefault((record["workload"], name), []).append(metric["value"])
    return out


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    prints = {json.dumps(r["fingerprint"], sort_keys=True) for r in base + new}
    if len(prints) != 1:
        print("refusing to compare: results come from different hosts or builds:",
              file=sys.stderr)
        for fingerprint in sorted(prints):
            print("  " + fingerprint, file=sys.stderr)
        sys.exit(2)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {m["name"]: m for m in spec["end_to_end"]}
    regressed = False
    base_e2e, new_e2e = collect(base, 0), collect(new, 0)
    print("%-9s %-14s %12s %6s %12s %6s %8s  verdict"
          % ("workload", "metric", "base", "iqr", "new", "iqr", "change"))
    for key in sorted(set(base_e2e) & set(new_e2e)):
        workload, name = key
        b, n = base_e2e[key], new_e2e[key]
        bm, nm = statistics.median(b), statistics.median(n)
        change = (nm - bm) / bm if bm else 0.0
        worse = change if declared[name]["better"] == "lower" else -change
        verdict = "ok"
        if worse > declared[name]["bound"]:
            verdict, regressed = "WORSE beyond bound", True
        print("%-9s %-14s %12.4g %6.3f %12.4g %6.3f %+8.3f  %s"
              % (workload, name, bm, spread(b), nm, spread(n), change, verdict))

    base_layer, new_layer = collect(base, 1), collect(new, 1)
    for key in sorted(set(base_layer) & set(new_layer)):
        print("%-9s %-40s %12.4g -> %12.4g"
              % (key[0], key[1], statistics.median(base_layer[key]),
                 statistics.median(new_layer[key])))
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
