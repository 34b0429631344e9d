#!/usr/bin/env python3
"""Self-test of the benchmark at toy sizes.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json, runs run.py --toy untraced and traced
and checks that:
  * the last stdout line has exactly correct/attempted/failed/metrics, is
    correct, and names every declared metric of its mode with its unit;
  * end-to-end metrics are positive numbers;
  * the correctness gate ran, and every traced digest equals its untraced
    one.
Then it copies only BENCHMARK.json and perfbench/ into a scratch directory
and checks that the benchmark fails there without printing a result.
Exits 0 when every check passes.
"""
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
failures = []


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--toy"],
                          cwd=cwd, capture_output=True, text=True, timeout=900)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in [w["name"] for w in bench["workloads"]]:
        digests = {}
        for trace in (0, 1):
            tag = "%s trace=%d" % (workload, trace)
            proc = run(workload, trace)
            lines = proc.stdout.strip().splitlines()
            expect(proc.returncode == 0 and len(lines) >= 2, tag + ": exits 0 with a result")
            if proc.returncode != 0 or len(lines) < 2:
                sys.stderr.write(proc.stderr[-2000:])
                continue
            result = json.loads(lines[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   tag + ": result keys")
            expect(result["correct"] is True and result["failed"] == 0 and
                   result["attempted"] >= 1, tag + ": correct, nothing failed")
            declared = bench["per_layer"] if trace else bench["end_to_end"]
            expect(sorted(result["metrics"]) == sorted(m["name"] for m in declared),
                   tag + ": exactly the declared metrics")
            for m in declared:
                got = result["metrics"].get(m["name"], {})
                ok = got.get("unit") == m["unit"] and isinstance(got.get("value"), (int, float))
                if not trace:
                    ok = ok and got["value"] > 0
                expect(ok, "%s: %s printed with unit %s" % (tag, m["name"], m["unit"]))
            with open(os.path.join(ROOT, ".bench_build", "results",
                                   "%s-seed3-trace%d-toy.json" % (workload, trace))) as f:
                record = json.load(f)
            expect(record["gates"] >= 1, tag + ": correctness gate ran (%d checks)" % record["gates"])
            digests.update(record["digests"])
        for name, value in sorted(digests.items()):
            if name.endswith(".traced"):
                expect(digests.get(name[:-len(".traced")]) == value,
                       "%s: traced digest %s equals the untraced one" % (workload, name))

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bench["workloads"][0]["name"], 0, cwd=bare)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "without the sources the benchmark fails and prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
