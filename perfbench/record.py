#!/usr/bin/env python3
"""Regenerate perfbench/record.json, the checked-in perf record.

    python3 perfbench/record.py [--spread N]

For every workload it keeps one untraced and one traced run on seed 1 and
again on seed 2 (a seed held back for checking later claims), each with its
provenance and output digests. Every run lasts BENCHMARK.json's
run_seconds. With --spread N it also makes two sets of N untraced runs per
workload: one on seeds 1000, 1001, ... ("spread"), then one repeating seed
1000 ("repeat"). For each set and end-to-end metric it records the median,
the quartiles and the quartile distance as a share of the median, as
statistics.quantiles(values, n=4) gives them. "repeat" also records
worse_share: how much worse its median is than the first set's.
Runs are sequential; the host is shared, so run nothing else meanwhile.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit("perfbench/record.py: %s seed %d trace %d failed:\n%s"
                 % (workload, seed, trace, proc.stderr[-2000:]))
    meta, result = json.loads(lines[-2]), json.loads(lines[-1])
    print("%s seed=%d trace=%d correct=%s" % (workload, seed, trace, result["correct"]),
          flush=True)
    return {"provenance": meta["provenance"], "digests": meta["digests"],
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def spread_of(runs):
    """Per metric: median, quartiles, quartile distance ÷ median, values."""
    values = {}
    for r in runs:
        for name, value in r["metrics"].items():
            values.setdefault(name, []).append(value)
    spread = {}
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread[name] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                        "iqr_share": (q3 - q1) / statistics.median(vals), "values": vals}
    return spread


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spread", type=int, default=0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]

    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    record = {"run_seconds": seconds, "runs": [], "spread": {}, "repeat": {}}
    for workload in [w["name"] for w in bench["workloads"]]:
        for seed in (1, 2):
            for trace in (0, 1):
                record["runs"].append(run(workload, seed, seconds, trace))
        if args.spread:
            seeds = spread_of([run(workload, seed, seconds, 0)
                               for seed in range(1000, 1000 + args.spread)])
            repeat = spread_of([run(workload, 1000, seconds, 0) for _ in range(args.spread)])
            for name, stats in repeat.items():
                # How much worse the second set's median is than the first's.
                shift = stats["median"] / seeds[name]["median"] - 1.0
                stats["worse_share"] = shift if better[name] == "lower" else -shift
            record["spread"][workload] = seeds
            record["repeat"][workload] = repeat

    with open(os.path.join(ROOT, "perfbench", "record.json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
