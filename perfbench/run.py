#!/usr/bin/env python3
"""The repo benchmark: build the driver from source, run one workload, print
the result line.

    python3 perfbench/run.py --workload paper_figs --seed 1 --seconds 8 --trace 0

Run it from the repository root. It configures and builds perfbench/ (which
compiles ../src) into .bench_build/perfbench, runs the driver, and prints as
its last stdout line one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end_to_end metrics
of BENCHMARK.json, with --trace 1 its per_layer metrics. The line before it
carries the provenance and output digests; the same record, with every
measured number, is written to .bench_build/results/. A traced run also
writes its spans to .bench_build/results/*.spans.jsonl.

--toy shrinks every workload to seconds (used by perfbench/selftest.py).
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RESULTS_DIR = os.path.join(".bench_build", "results")
DRIVER = os.path.join(BUILD_DIR, "nomc_perfbench")

# The per-layer metrics each workload measures, by name prefix. A traced run
# reads 0 for a declared metric outside them; one missing inside them is a
# driver error and counts as failed.
LAYERS = {
    "paper_figs": ("exp.", "net.", "sim.", "phy.", "mac.", "dcn.", "trace."),
    "city_field": ("net.", "sim.", "phy.", "mac.", "dcn.", "trace."),
    "service_mix": ("svc.", "exp.points", "exp.store_bytes", "exp.index_find_us",
                    "phy.ber_ns", "trace."),
}


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build():
    """Configure once, then build; an up-to-date tree costs a no-op ninja."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "build.ninja")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "nomc_perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(step))
            return False
    return True


def git_sha():
    """The commit being measured, when the checkout is a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args()

    os.chdir(ROOT)
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        log("unknown workload " + args.workload)
        return 2
    if not build():
        return 1

    os.makedirs(RESULTS_DIR, exist_ok=True)
    tag = "%s-seed%d-trace%d%s" % (args.workload, args.seed, args.trace,
                                  "-toy" if args.toy else "")
    spans = os.path.join(RESULTS_DIR, tag + ".spans.jsonl")
    work_dir = os.path.join(".bench_build", "work", "%s-%d" % (args.workload, os.getpid()))
    command = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir, "--spans", spans] + (["--toy"] if args.toy else [])
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds * 3 + 120)
    except subprocess.TimeoutExpired:
        log("driver timed out")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("driver failed with exit code %d" % proc.returncode)
        return 1
    report = json.loads(lines[-1])

    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    missing = []
    for metric in declared:
        name = metric["name"]
        value = report["metrics"].get(name)
        if value is None:
            if not args.trace or name.startswith(LAYERS[args.workload]):
                missing.append(name)
                continue
            value = 0.0  # a layer this workload does not exercise
        metrics[name] = {"value": value, "unit": metric["unit"]}
    for name in missing:
        log("metric not measured: " + name)

    provenance = dict(report["provenance"], git_sha=git_sha(), workload=args.workload,
                      seed=args.seed, seconds=args.seconds, trace=args.trace, toy=args.toy)
    record = {"provenance": provenance, "digests": report["digests"],
              "attempted": report["attempted"], "failed": report["failed"],
              "gates": report["gates"],
              "measured": report["metrics"]}
    with open(os.path.join(RESULTS_DIR, tag + ".json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")

    result = {"correct": report["failed"] == 0 and not missing,
              "attempted": report["attempted"],
              "failed": report["failed"] + len(missing),
              "metrics": metrics}
    print(json.dumps({"provenance": provenance, "digests": report["digests"]}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
