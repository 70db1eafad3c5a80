"""The harness: runs each workload in fresh subprocesses and reports it.

Timing happens inside the workload subprocess around the program's
public calls; the harness only starts it, reads its one JSON line, adds
what can only be seen from outside (set-up time, machine load), pools
and prints.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

from perfbench import env
from perfbench.spec import (QUICK_SIZING, ROOT, SIZING, benchmark_spec, median,
                            metric_units, percentile)

#: Subprocesses an untraced run splits its ops over.  Where a process's
#: pages land in physical memory decides how its L2-resident tiles
#: conflict in cache, and is fixed for the life of the process: ops of
#: one process agree to a few percent, processes differ by ±10 % on the
#: 2-rank workloads.  Pooling the ops of several processes measures the
#: program, not one draw of the page allocator — and gives ``setup_s``
#: its several samples for free.
PROCESSES = 3
#: a workload subprocess that runs longer than this is killed
CHILD_TIMEOUT_S = 170


def start_child(workload: str, seed: int, ops: int, *, trace: int = 0,
                quick: bool = False) -> dict:
    """Run one workload subprocess to its end; returns its JSON line."""
    cmd = [sys.executable, "-m", "perfbench.child", "--workload", workload,
           "--seed", str(seed), "--ops", str(ops), "--trace", str(trace),
           "--spawned-at", repr(time.time())]
    if quick:
        cmd.append("--quick")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"workload subprocess failed "
                           f"({done.returncode}):\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def warm_page_cache() -> None:
    """One throw-away import, so no run pays for a cold disk."""
    subprocess.run(
        [sys.executable, "-c", "import numpy, scipy.sparse.linalg, repro"],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, timeout=CHILD_TIMEOUT_S, check=True)


def end_to_end(children: list) -> dict:
    """The end-to-end metrics of one run, from its subprocesses' ops."""
    op_seconds = [s for c in children for s in c["op_seconds"]]
    solve_seconds = sum(c["solve_seconds"] for c in children)
    return {
        "setup_s": median([c["setup_s"] for c in children]),
        "op_p50_s": median(op_seconds),
        "op_p90_s": percentile(op_seconds, 90),
        "ops_per_s": (sum(c["ok_ops"] for c in children)
                      / sum(c["window_s"] for c in children)),
        "cell_updates_per_s":
            (sum(c["cell_updates"] for c in children) / solve_seconds
             if solve_seconds else 0.0),
        "peak_rss_mb": max(c["peak_rss_mb"] for c in children),
    }


def run_workload(workload: str, seed: int, seconds: float, *, trace: int = 0,
                 quick: bool = False) -> dict:
    """One run of one workload: the record the result files hold."""
    warm_page_cache()
    load_start, busy_start = env.load_now(), env.busy_cores()
    ops = (QUICK_SIZING if quick else SIZING)[workload].timed_ops(seconds)
    if trace:
        children = [start_child(workload, seed, ops, trace=1, quick=quick)]
        values = children[0]["layers"]
    else:
        # Each subprocess takes its share of the ops, and its own seed.
        shares = [ops // PROCESSES + (i < ops % PROCESSES)
                  for i in range(PROCESSES)]
        children = [start_child(workload, seed * PROCESSES + i, share,
                                quick=quick)
                    for i, share in enumerate(shares) if share]
        values = end_to_end(children)
    attempted = sum(len(c["op_seconds"]) for c in children)
    failures = [f for c in children for f in c["failures"]]
    ok = sum(c["ok_ops"] for c in children)
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "quick": quick,
        "attempted": attempted,
        # A failure not tied to one op (counts that differ between ops)
        # still fails the run.
        "failed": max(attempted - ok, min(len(failures), 1)),
        "failures": failures[:10],
        "values": values,
        "counts": [c["counts"] for c in children],
        "op_seconds": [c["op_seconds"] for c in children],
        "setup_samples": [c["setup_s"] for c in children],
        "load_start": load_start, "load_end": env.load_now(),
        "busy_cores_start": busy_start, "noisy": env.is_noisy(busy_start),
    }


def print_run(run: dict) -> None:
    kind = "per_layer" if run["trace"] else "end_to_end"
    why = next(w["why"] for w in benchmark_spec()["workloads"]
               if w["name"] == run["workload"])
    noisy = (f", NOISY: {run['busy_cores_start']:.2f} cores busy at start"
             if run["noisy"] else "")
    print(f"== {run['workload']} ({'traced' if run['trace'] else 'untraced'}, "
          f"seed {run['seed']}, {run['attempted']} ops attempted, "
          f"{run['failed']} failed{noisy})")
    print(f"   {why}")
    for name, unit in metric_units(kind).items():
        print(f"   {name:34s} {run['values'][name]:>16.6g} {unit}")
    print(f"   counts: {json.dumps(run['counts'][0], sort_keys=True)}")
    for failure in run["failures"]:
        print(f"   FAILED: {failure}")


def run_all(seed: int, seconds: float, *, trace: int = 0,
            quick: bool = False) -> dict:
    """Every workload once; returns one result set."""
    runs = []
    for workload in benchmark_spec()["workloads"]:
        run = run_workload(workload["name"], seed, seconds, trace=trace,
                           quick=quick)
        print_run(run)
        runs.append(run)
    return {"env": env.environment(), "seed": seed, "seconds": seconds,
            "trace": trace, "quick": quick, "runs": runs}
