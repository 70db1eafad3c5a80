"""Extended study: where the time goes, per configuration and scale.

Decomposes each predicted point into compute / halo / allreduce (and, for
the multigrid baseline, coarse-solve and setup) shares.  This is the
quantitative version of the paper's §VI narrative: the strong-scaling knee
is exactly where the latency terms overtake the shrinking compute term.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.harness.common import (
    BENCH_MESH,
    BENCH_STEPS,
    gpu_node_counts,
    iteration_model_for,
)
from repro.io.tables import format_table
from repro.perfmodel.machines import Machine, TITAN
from repro.perfmodel.predict import predict_solve_time
from repro.perfmodel.profiles import SolverConfig

CATEGORIES = ("compute", "halo", "allreduce", "coarse", "setup")


@dataclass
class BreakdownResult:
    machine: str
    config: SolverConfig
    node_counts: list[int]
    #: seconds[category][i] aligned with node_counts
    seconds: dict[str, list[float]]

    def totals(self) -> list[float]:
        return [sum(self.seconds[c][i] for c in CATEGORIES)
                for i in range(len(self.node_counts))]

    def share(self, category: str, nodes: int) -> float:
        i = self.node_counts.index(nodes)
        total = self.totals()[i]
        return self.seconds[category][i] / total if total else 0.0

    def dominant(self, nodes: int) -> str:
        i = self.node_counts.index(nodes)
        return max(CATEGORIES, key=lambda c: self.seconds[c][i])

    def to_text(self) -> str:
        headers = ["Nodes", "total_s"] + [f"{c}_%" for c in CATEGORIES]
        rows = []
        totals = self.totals()
        for i, n in enumerate(self.node_counts):
            row = [str(n), f"{totals[i]:.2f}"]
            for c in CATEGORIES:
                pct = 100.0 * self.seconds[c][i] / totals[i] if totals[i] else 0
                row.append(f"{pct:.1f}")
            rows.append(row)
        title = (f"== Time breakdown: {self.config.label} on "
                 f"{self.machine} ==")
        return title + "\n" + format_table(headers, rows)


def run_breakdown(machine: Machine = TITAN,
                  config: SolverConfig | None = None,
                  mesh_n: int = BENCH_MESH,
                  n_steps: int = BENCH_STEPS,
                  node_counts: list[int] | None = None,
                  ranks_per_node: int | None = None) -> BreakdownResult:
    if config is None:
        config = SolverConfig("cg")
    if node_counts is None:
        node_counts = gpu_node_counts(machine.max_nodes)
    iters = iteration_model_for(config)(mesh_n)
    seconds = {c: [] for c in CATEGORIES}
    for nodes in node_counts:
        p = predict_solve_time(machine, config, mesh_n, nodes,
                               outer_iters=iters, n_steps=n_steps,
                               ranks_per_node=ranks_per_node)
        for c in CATEGORIES:
            seconds[c].append(p.breakdown.get(c, 0.0))
    return BreakdownResult(machine=machine.name, config=config,
                           node_counts=node_counts, seconds=seconds)
