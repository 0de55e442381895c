"""Benchmark for mvlab: seeded closed-loop workloads with exact result checks.

One workload per process, one caller, no threads:

    python3 perfbench/run.py --workload gap_sweep --seed 1 --seconds 35 --trace 0

runs the workload's cycles (see workloads.py) back to back, each op only
after the previous one returned, until --seconds have passed at a cycle
boundary. It prints each metric with its unit, a metadata line, and as the
last line one JSON object {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones:

    setup_s         median over SETUP_REPEATS set-ups of: a fresh import of
                    mvlab (module bodies re-run, so every cache starts
                    empty), generating the first cycle's inputs from the
                    seed and writing its input documents; later cycles are
                    generated between ops, outside the timed calls
    ops_per_s       completed ops / seconds spent inside timed calls
    latency_p50_ms  median per-op wall time
    latency_p90_ms  nearest-rank 90th percentile (needs >= 100 ops to have
                    ten samples beyond it; the sample count is printed)
    peak_rss_mb     peak resident memory of the process after the first
                    cycle that brings the op count to RSS_OPS (or at the end
                    of a shorter run): a fixed amount of work, so the figure
                    does not grow with how many cycles a host's speed allows

Every time above is wall time scaled to a reference host speed. A shared
host changes its speed by up to 1.5x within seconds, and every CPU-bound
pure-Python kernel slows by about the same factor. So the loop runs a fixed
exact-arithmetic kernel (calibrate(), about REF_MS ms, no mvlab code)
after every op, until the kernel's time reaches REF_SHARE of the op's, and
scales each op by REF_MS / the mean kernel time of the runs right before
and right after it; each set-up is scaled by the median kernel time around
it. A time so scaled reads as on a host where the kernel takes exactly
REF_MS ms. The unscaled figures and the median kernel time are printed on
the metadata line.

Checks run outside the timed calls; an op that raises or fails its check
counts in "failed", and failed/attempted is printed as failed_ratio.

With --trace 1 the same loop runs with spans around every mvlab entry point
(spans.py) and the metrics are the per-layer ones, normalised per op.
Span times are unscaled; trace.ops_per_s is scaled like ops_per_s, so the
two compare directly.

    python3 perfbench/run.py --all [--seed N] [--seconds S]

runs every workload untraced and traced, each in a fresh process, and
prints one table with the tracing overhead.

The package is imported from src/ next to this directory and nowhere else;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
from spans import CATALOGUE, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 9
RSS_OPS = 120
REF_MS = 2.5  # calibrate() time that defines the reference host speed
REF_SHARE = 0.15  # calibrate() time after each op, as a share of the op's
REF_AROUND_SETUP = 5  # calibrate() runs before and after each set-up
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class MissingSource(Exception):
    pass


def import_mvlab():
    """Import mvlab from SRC with fresh module objects (empty caches)."""
    for key in [k for k in sys.modules if k == "mvlab" or k.startswith("mvlab.")]:
        del sys.modules[key]
    if not os.path.isfile(os.path.join(SRC, "mvlab", "__init__.py")):
        raise MissingSource(f"no mvlab package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    m = importlib.import_module("mvlab")
    importlib.import_module("mvlab.cli")
    if not os.path.abspath(m.__file__).startswith(SRC + os.sep):
        raise MissingSource(f"mvlab imported from {m.__file__}, not from {SRC}")
    return m


def _ref_matrices():
    rng = random.Random(1)
    return [
        [[Fraction(rng.randrange(-9, 10), rng.randrange(1, 6)) for _ in range(7)]
         for _ in range(7)]
        for _ in range(4)
    ]


_REF_MATRICES = _ref_matrices()


def calibrate():
    """Fixed exact-arithmetic kernel: Gaussian elimination over Fraction on
    four fixed 7x7 rational matrices. It runs no mvlab code, so no change
    to mvlab changes its time; only the host's speed does."""
    for mat in _REF_MATRICES:
        m = [row[:] for row in mat]
        for i in range(len(m)):
            p = next(k for k in range(i, len(m)) if m[k][i] != 0)
            m[i], m[p] = m[p], m[i]
            for k in range(i + 1, len(m)):
                f = m[k][i] / m[i][i]
                m[k] = [a - f * b for a, b in zip(m[k], m[i])]


def ref_seconds():
    start = time.perf_counter()
    calibrate()
    return time.perf_counter() - start


def cycle_rng(workload, seed, c):
    return random.Random(f"{workload}:{seed}:{c}")


def setup(workload, seed, workdir):
    """Import mvlab and build cycle 0; returns (seconds, m, cycles)."""
    shutil.rmtree(workdir, ignore_errors=True)
    gc.collect()  # each set-up starts from a heap without the last one's garbage
    start = time.perf_counter()
    m = import_mvlab()
    os.makedirs(workdir)
    cycles = [WORKLOADS[workload](cycle_rng(workload, seed, 0), 0, workdir)]
    return time.perf_counter() - start, m, cycles


def scaled_setup(workload, seed, workdir):
    """setup() timed between kernel runs; returns (raw s, scaled s, m, cycles)."""
    refs = [ref_seconds() for _ in range(REF_AROUND_SETUP)]
    elapsed, m, cycles = setup(workload, seed, workdir)
    refs += [ref_seconds() for _ in range(REF_AROUND_SETUP)]
    return elapsed, elapsed * REF_MS / 1000.0 / statistics.median(refs), m, cycles


def execute(op, m, tracer=None, perturb=False):
    """Run one op; returns (seconds inside the timed call, passed check).

    Any exception from the program counts as a failed op: the loop must
    keep running, so the traceback goes to stderr and is not raised.
    """
    start = time.perf_counter()
    try:
        raw = op.call(m) if tracer is None else tracer.run("op", op.call, m)
    except Exception:
        elapsed = time.perf_counter() - start
        print(f"op {op.label} raised:", file=sys.stderr)
        traceback.print_exc()
        return elapsed, False
    elapsed = time.perf_counter() - start
    try:
        value = op.collect(raw)
        if perturb:
            value = op.perturb(value)
        return elapsed, bool(op.check(value))
    except Exception:
        print(f"check of op {op.label} raised:", file=sys.stderr)
        traceback.print_exc()
        return elapsed, False


def run_loop(m, workload, seed, cycles, workdir, seconds, tracer=None):
    """Closed loop over whole cycles until `seconds` have passed.

    Returns raw and scaled per-op latencies, the failed count, the cycle
    count, the loop's wall time, every kernel time and the peak RSS in MB
    once RSS_OPS ops are done."""
    make = WORKLOADS[workload]
    raw, scaled, refs, failed, rss = [], [], [], 0, None
    before = [ref_seconds()]
    start = time.perf_counter()
    c = 0
    while c == 0 or time.perf_counter() - start < seconds:
        if c == len(cycles):
            cycles.append(make(cycle_rng(workload, seed, c), c, workdir))
        for op in cycles[c]:
            if tracer is not None:
                tracer.op = len(raw)
            elapsed, ok = execute(op, m, tracer)
            failed += not ok
            after, owed = [], REF_SHARE * elapsed
            while owed > 0:
                after.append(ref_seconds())
                owed -= after[-1]
            raw.append(elapsed)
            scaled.append(elapsed * REF_MS / 1000.0 / statistics.fmean(before + after))
            refs += after
            before = after
        if rss is None and len(raw) >= RSS_OPS:
            rss = peak_rss_mb()
        cycles[c] = None  # drop the inputs of finished cycles
        c += 1
    wall = time.perf_counter() - start
    return raw, scaled, failed, c, wall, refs, rss if rss is not None else peak_rss_mb()


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def commit():
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines():
    total = 0
    for base, _, files in os.walk(os.path.join(SRC, "mvlab")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def run_workload(workload, seed, seconds, trace):
    workdir = os.path.join(OUT, f"work-{workload}-{os.getpid()}")
    os.makedirs(OUT, exist_ok=True)
    try:
        for _ in range(REF_AROUND_SETUP):
            calibrate()  # warm-up
        raw_times, times = [], []
        for _ in range(SETUP_REPEATS):
            elapsed, adjusted, m, cycles = scaled_setup(workload, seed, workdir)
            raw_times.append(elapsed)
            times.append(adjusted)
        # free the module objects of the earlier set-ups, so the loop starts
        # from the heap a single import leaves
        gc.collect()
        tracer = None
        if trace:
            tracer = Tracer()
            tracer.install()
        raw, latencies, failed, ncycles, wall, refs, rss = run_loop(
            m, workload, seed, cycles, workdir, seconds, tracer
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    busy = sum(latencies)
    ordered = sorted(latencies)
    if trace:
        tracer.write(os.path.join(OUT, f"spans-{workload}.csv"))
        values = layer_metrics(tracer, len(latencies), busy)
        units = {name: unit for name, unit, _ in CATALOGUE}
    else:
        values = {
            "setup_s": statistics.median(times),
            "ops_per_s": len(latencies) / busy,
            "latency_p50_ms": statistics.median(ordered) * 1000.0,
            "latency_p90_ms": nearest_rank(ordered, 0.9) * 1000.0,
            "peak_rss_mb": rss,
        }
        units = dict(END_TO_END)
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    print(f"perfbench {workload} seed={seed} trace={trace}")
    for name, item in metrics.items():
        print(f"  {name:52s} {item['value']:.6g} {item['unit']}")
    print(f"  {'failed_ratio':52s} {failed / len(latencies):.6g} ({failed}/{len(latencies)})")
    if len(latencies) < 100:
        print(f"  warning: {len(latencies)} ops; p90 has fewer than 10 samples beyond it")
    meta = {
        "python": platform.python_version(),
        "commit": commit(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "src_lines": src_lines(),
        "samples": len(latencies),
        "cycles": ncycles,
        "loop_wall_s": round(wall, 3),
        "setup_runs_s": [round(t, 4) for t in times],
        "ref_ms_median": round(statistics.median(refs) * 1000.0, 4),
        "ref_runs": len(refs),
        "unscaled": {
            "setup_s": round(statistics.median(raw_times), 4),
            "ops_per_s": round(len(raw) / sum(raw), 4),
            "latency_p50_ms": round(statistics.median(raw) * 1000.0, 3),
            "latency_p90_ms": round(nearest_rank(sorted(raw), 0.9) * 1000.0, 3),
        },
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(latencies),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )


def run_all(seed, seconds):
    """Every workload untraced then traced, each in its own fresh process."""
    rows = []
    for workload in WORKLOADS:
        results = {}
        for trace in (0, 1):
            argv = [
                sys.executable,
                os.path.abspath(__file__),
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(seconds),
                "--trace", str(trace),
            ]
            proc = subprocess.run(
                argv, cwd=ROOT, capture_output=True, text=True, timeout=600
            )
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            results[trace] = json.loads(proc.stdout.strip().splitlines()[-1])
        rows.append((workload, results))
    columns = (
        ("workload", "", 12), ("setup_s", "s", 8), ("ops_per_s", "1/s", 10),
        ("p50_ms", "ms", 7), ("p90_ms", "ms", 8), ("failed_ratio", "", 12),
        ("peak_rss_mb", "MB", 12), ("traced_ops_per_s", "1/s", 17),
        ("overhead", "", 8),
    )
    print()
    for row in (0, 1):
        print(" ".join(
            f"{col[row]:{'<' if i == 0 else '>'}{width}s}"
            for i, (*col, width) in enumerate(columns)
        ))
    for workload, res in rows:
        m = {k: v["value"] for k, v in res[0]["metrics"].items()}
        traced = res[1]["metrics"]["trace.ops_per_s"]["value"]
        print(
            f"{workload:12s} {m['setup_s']:8.4f} {m['ops_per_s']:10.3f}"
            f" {m['latency_p50_ms']:7.2f} {m['latency_p90_ms']:8.2f}"
            f" {res[0]['failed'] / res[0]['attempted']:12.4f}"
            f" {m['peak_rss_mb']:12.1f} {traced:17.3f}"
            f" {m['ops_per_s'] / traced - 1:8.1%}"
        )
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    ns = parser.parse_args(argv)
    if ns.all:
        return run_all(ns.seed, ns.seconds)
    if ns.workload is None:
        parser.error("--workload or --all is required")
    try:
        run_workload(ns.workload, ns.seed, ns.seconds, ns.trace)
    except MissingSource as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
