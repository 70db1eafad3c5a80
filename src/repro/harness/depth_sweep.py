"""Extended study: optimal matrix-powers halo depth per machine and scale.

The paper observes (§VI) that deeper halos keep paying off on GPUs up to
depth 16 while CPUs plateau around 8, and conjectures "Increasing the CPPCG
halo depth is expected to improve both its scaling and performance
further".  This study sweeps depth x node-count per machine and reports the
best depth at each scale — quantifying where the redundant-work cost
overtakes the latency saving.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.harness.common import BENCH_MESH, BENCH_STEPS, iteration_model_for
from repro.perfmodel.machines import Machine
from repro.perfmodel.predict import predict_solve_time
from repro.perfmodel.profiles import SolverConfig

DEPTHS = (1, 2, 4, 8, 16)


@dataclass
class DepthSweepResult:
    machine: str
    ranks_per_node: int
    node_counts: list[int]
    #: seconds[depth][i] for node_counts[i]
    seconds: dict[int, list[float]]

    def best_depth(self, nodes: int) -> int:
        i = self.node_counts.index(nodes)
        return min(self.seconds, key=lambda d: self.seconds[d][i])

    def best_depths(self) -> list[int]:
        return [self.best_depth(n) for n in self.node_counts]


def run_depth_sweep(machine: Machine,
                    node_counts: list[int] | None = None,
                    mesh_n: int = BENCH_MESH,
                    n_steps: int = BENCH_STEPS,
                    ranks_per_node: int | None = None) -> DepthSweepResult:
    """Sweep PPCG halo depth over node counts on one machine."""
    if node_counts is None:
        node_counts = [n for n in (64, 256, 1024, 4096, 8192)
                       if n <= machine.max_nodes]
    rpn = ranks_per_node if ranks_per_node is not None \
        else machine.default_ranks_per_node
    seconds: dict[int, list[float]] = {}
    for depth in DEPTHS:
        config = SolverConfig("ppcg", inner_steps=10, halo_depth=depth)
        iters = iteration_model_for(config)(mesh_n)
        seconds[depth] = [
            predict_solve_time(machine, config, mesh_n, nodes,
                               outer_iters=iters, n_steps=n_steps,
                               ranks_per_node=rpn).seconds
            for nodes in node_counts
        ]
    return DepthSweepResult(machine=machine.name, ranks_per_node=rpn,
                            node_counts=node_counts, seconds=seconds)
