"""``--compare A B``: is B a regression, a gain, or neither, per metric?

One row per workload × end-to-end metric, never a combined score.  The
rules are those of the choosing-metrics guide (sections 6 to 8): B is
*worse* when its median is worse than A's by more than the bound fixed
in ``BENCHMARK.json``; where the run-to-run spread is wider than the
bound and the two sides' runs overlap, the row is *unresolved*, not
*within*; *better* needs at least ten runs a side, every run of B better
than every run of A and a gap wider than A's own spread.  Runs taken on
a loaded machine are never judged.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from perfbench.spec import benchmark_spec, median

#: runs a side below which no gain is claimed (the guide's "ten pairs")
RUNS_FOR_A_GAIN = 10


def load_sets(path: str) -> list:
    """The result sets in a file, or in every ``*.json`` of a directory."""
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    if not files:
        raise SystemExit(f"perfbench: no result files in {path}")
    return [json.loads(f.read_text()) for f in files]


def quartiles(values: list) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(a: list, b: list, better: str, bound: float, noisy: bool) -> str:
    if noisy:
        return "unresolved"
    sign = 1.0 if better == "lower" else -1.0
    ma, mb = median(a), median(b)
    worse_by = sign * (mb - ma) / ma
    spread_a = (quartiles(a)[1] - quartiles(a)[0]) / ma
    spread_b = (quartiles(b)[1] - quartiles(b)[0]) / mb
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    all_worse = all(sign * (y - x) > 0 for x in a for y in b)
    if max(spread_a, spread_b) > bound and not (all_better or all_worse):
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if (all_better and min(len(a), len(b)) >= RUNS_FOR_A_GAIN
            and -worse_by > spread_a):
        return "better"
    return "within"


def compare(path_a: str, path_b: str) -> int:
    """Print the comparison; returns the number of ``worse`` rows."""
    sides = []
    for path in (path_a, path_b):
        runs: dict = {}
        for result_set in load_sets(path):
            for run in result_set["runs"]:
                if not run["trace"]:
                    runs.setdefault(run["workload"], []).append(run)
        sides.append(runs)
    worse = 0
    print(f"A = {path_a}\nB = {path_b}\nratio = B median / A median")
    header = (f"{'workload':18s} {'metric':20s} {'unit':5s} "
              f"{'A median [q1, q3] (n)':36s} {'B median [q1, q3] (n)':36s} "
              f"{'ratio':>7s} {'bound':>6s}  verdict")
    print(header)
    for workload in (w["name"] for w in benchmark_spec()["workloads"]):
        runs_a, runs_b = (side.get(workload, []) for side in sides)
        if not runs_a or not runs_b:
            print(f"{workload:18s} missing on one side")
            continue
        noisy = any(r["noisy"] for r in runs_a + runs_b)
        for metric in benchmark_spec()["end_to_end"]:
            a, b = ([r["values"][metric["name"]] for r in runs]
                    for runs in (runs_a, runs_b))
            v = verdict(a, b, metric["better"], metric["bound"], noisy)
            worse += v == "worse"

            def cell(values):
                q1, q3 = quartiles(values)
                return (f"{median(values):.5g} [{q1:.5g}, {q3:.5g}] "
                        f"({len(values)})")
            print(f"{workload:18s} {metric['name']:20s} {metric['unit']:5s} "
                  f"{cell(a):36s} {cell(b):36s} "
                  f"{median(b) / median(a):7.3f} {metric['bound']:6.2f}  {v}"
                  f"{' (noisy run)' if noisy else ''}")
        failed = [sum(r["failed"] for r in runs) for runs in (runs_a, runs_b)]
        counts = {json.dumps(r["counts"], sort_keys=True)
                  for r in runs_a + runs_b}
        print(f"{workload:18s} failed ops A/B: {failed[0]}/{failed[1]}; "
              f"exact counts: "
              f"{'identical in every run' if len(counts) == 1 else 'DIFFER'}")
    return worse
