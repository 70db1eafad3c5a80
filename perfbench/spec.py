"""The benchmark's fixed facts: paths, the contract file, workload sizes.

``BENCHMARK.json`` owns every metric name, unit and bound; this module
only reads it, so a name the code emits that the contract does not list
(or the reverse) is an error, not a silent extra.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

DEFAULT_SEED = 20170905
#: tolerance of every solve (the paper's ``tl_eps``)
EPS = 1e-10


@functools.lru_cache(maxsize=1)
def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(kind: str) -> dict:
    """``name -> unit`` for ``kind`` in ``("end_to_end", "per_layer")``."""
    return {m["name"]: m["unit"] for m in benchmark_spec()[kind]}


def with_units(values: dict, kind: str) -> dict:
    """``{name: {"value", "unit"}}``; the names must be exactly the contract's."""
    units = metric_units(kind)
    if set(values) != set(units):
        raise KeyError(
            f"{kind} metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(units) - set(values))}, "
            f"extra {sorted(set(values) - set(units))}")
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}


def use_program_source() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program to measure: {src}/repro "
                         f"is missing (run from a full checkout)")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile of ``values`` (``q`` in [0, 100])."""
    v = sorted(values)
    pos = (len(v) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


@dataclass(frozen=True)
class Sizing:
    """How many timed ops one run of a workload makes.

    Op counts are fixed numbers, not a stopwatch loop, so the exact
    counts (iterations, messages, journal records) repeat run to run.
    ``ops_per_second`` is the seed commit's rate on the reference box:
    ``--seconds`` × rate ops take about ``--seconds`` there.
    """

    ops_per_second: float
    min_ops: int

    def timed_ops(self, seconds: float) -> int:
        return max(self.min_ops, round(seconds * self.ops_per_second))


#: Calibrated at the seed commit (12 s, 0.9 s and 1.05 s per op; 12.8
#: requests/s over two closed-loop clients — service_mixed counts are
#: per client).  The harness splits a run's ops over its subprocesses.
#: cg_serial_512 never runs fewer than 3 ops (one per subprocess), so
#: it measures for longer than ``run_seconds``.
SIZING = {
    "cg_serial_512": Sizing(1 / 12.3, min_ops=3),
    "cg_ranks2_256": Sizing(1.1, min_ops=5),
    "cppcg_ranks2_256": Sizing(0.95, min_ops=5),
    "service_mixed": Sizing(6.4, min_ops=30),
}

#: ``--quick`` (the self-test): 64² meshes and a handful of ops,
#: whatever ``--seconds`` says.
QUICK_MESH = 64
QUICK_SIZING = {
    "cg_serial_512": Sizing(0, min_ops=3),
    "cg_ranks2_256": Sizing(0, min_ops=3),
    "cppcg_ranks2_256": Sizing(0, min_ops=3),
    "service_mixed": Sizing(0, min_ops=30),
}
