"""Self-test of the benchmark: python3 perfbench/selftest.py

1. For every workload, the first op of each kind whose check is an exact
   equality (cycles 0-4 of seed 1) runs through the benchmark's own
   execute(): as produced it must pass, and with its result moved by
   1/10^9 it must be counted as failed.
2. BENCHMARK.json must name exactly the workloads and metrics that run.py
   and spans.py emit, and predictions.json only metrics and workloads that
   exist.
3. In a directory holding only BENCHMARK.json and perfbench/, run.py must
   exit with a non-zero status and print no result.

Exit status 0 when all of these hold.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run
from spans import CATALOGUE
from workloads import WORKLOADS

CYCLES = 5


def check_perturbation():
    ok = True
    for workload, make in WORKLOADS.items():
        workdir = os.path.join(run.OUT, f"selftest-{workload}")
        try:
            _, m, cycles = run.setup(workload, 1, workdir)
            while len(cycles) < CYCLES:
                c = len(cycles)
                cycles.append(make(run.cycle_rng(workload, 1, c), c, workdir))
            seen = set()
            for cycle in cycles[:CYCLES]:
                for op in cycle:
                    if op.perturb is None or op.label in seen:
                        continue
                    seen.add(op.label)
                    _, passed = run.execute(op, m)
                    _, perturbed = run.execute(op, m, perturb=True)
                    good = passed and not perturbed
                    ok &= good
                    print(
                        f"{'ok  ' if good else 'FAIL'} {workload:12s} {op.label:22s}"
                        f" exact={passed} perturbed_counted_failed={not perturbed}"
                    )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return ok


def check_declared():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(os.path.join(run.HERE, "predictions.json"), encoding="utf-8") as fh:
        predictions = json.load(fh)
    problems = []
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        problems.append("workloads differ from workloads.WORKLOADS")
    if [(e["name"], e["unit"]) for e in bench["end_to_end"]] != list(run.END_TO_END):
        problems.append("end_to_end differs from run.END_TO_END")
    if [(p["name"], p["unit"], p["better"]) for p in bench["per_layer"]] != list(
        CATALOGUE
    ):
        problems.append("per_layer differs from spans.CATALOGUE")
    known = {e["name"] for e in bench["end_to_end"]}
    layers = {p["name"] for p in bench["per_layer"]}
    for pred in predictions:
        for name in pred["layer_metrics"]:
            if name not in layers:
                problems.append(f"{pred['name']}: unknown layer metric {name}")
        for name in pred["moves"] + pred["unchanged"]:
            if name.split("@")[0] not in known or name.split("@")[1] not in WORKLOADS:
                problems.append(f"{pred['name']}: unknown metric@workload {name}")
    for p in problems:
        print("FAIL", p)
    if not problems:
        print("ok   BENCHMARK.json and predictions.json match the code")
    return not problems


def check_bare_directory():
    bare = os.path.join(run.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(
            run.HERE,
            os.path.join(bare, "perfbench"),
            ignore=shutil.ignore_patterns("out", "__pycache__"),
        )
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        argv = [sys.executable, "perfbench/run.py", "--workload", "gap_sweep",
                "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    good = proc.returncode != 0 and '"correct"' not in proc.stdout
    print(f"{'ok  ' if good else 'FAIL'} without src/: exit {proc.returncode},"
          f" stderr: {proc.stderr.strip()[:80]}")
    return good


def main():
    results = [check_perturbation(), check_declared(), check_bare_directory()]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
