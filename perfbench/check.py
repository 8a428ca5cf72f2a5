#!/usr/bin/env python3
"""The benchmark's own check, at tiny sizes:

    python3 perfbench/check.py

1. Every workload in BENCHMARK.json runs with --trace 0 and --trace 1,
   exits 0, reports correct=true, and prints exactly the end-to-end or
   per-layer metric names BENCHMARK.json lists, each with its unit.
2. A perturbed reference output makes the correctness gate fail: exit 1,
   correct=false, no metrics.
3. In a directory holding only BENCHMARK.json and perfbench/, the command
   exits nonzero without printing a result.

Exits 0 when every check passes, 1 otherwise.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--seed", "1", "--seconds", "1", "--experiments", "2",
        "--programs", "crc32,qsort"]

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(workload, *extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, *extra],
        cwd=cwd, capture_output=True, text=True, check=False, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is not None and "correct" not in result:
        result = None
    return proc, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {"0": bench["end_to_end"], "1": bench["per_layer"]}

    for w in bench["workloads"]:
        for trace in ("0", "1"):
            proc, result = run(w["name"], "--trace", trace, *TINY)
            what = "%s --trace %s" % (w["name"], trace)
            check(proc.returncode == 0 and result is not None
                  and result["correct"] and result["attempted"] >= 1
                  and result["failed"] == 0, what + " runs and is correct")
            if result is None:
                continue
            metrics = result["metrics"]
            want = {m["name"]: m["unit"] for m in declared[trace]}
            check(set(metrics) == set(want),
                  what + " prints exactly the declared metrics")
            check(all(metrics[n]["unit"] == u for n, u in want.items()
                      if n in metrics), what + " prints the declared units")

    name = bench["workloads"][0]["name"]
    proc, result = run(name, "--trace", "0", "--perturb-reference", *TINY)
    check(proc.returncode == 1 and result is not None
          and not result["correct"] and result["metrics"] == {},
          "a perturbed reference fails the gate")

    bare = os.path.join(ROOT, ".bench_build", "check-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = run(name, "--trace", "0", *TINY, cwd=bare)
    check(proc.returncode != 0 and result is None,
          "without the sources the command fails and prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d check(s) failed" % len(failures) if failures
          else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
