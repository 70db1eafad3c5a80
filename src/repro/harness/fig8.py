"""Fig. 8: scaling efficiency of the best configuration per machine.

Lines: Spruce PPCG-1 (MPI), Piz Daint PPCG-16 (CUDA), Titan PPCG-16
(CUDA); efficiency relative to one node.  The Spruce line exceeds 1.0
(super-linear) while the working set transitions into cache; the GPU
machines separate at high node counts by interconnect quality.
"""

from __future__ import annotations

from repro.harness.common import (
    BENCH_MESH,
    BENCH_STEPS,
    FigureSeries,
    gpu_node_counts,
    iteration_model_for,
)
from repro.perfmodel.efficiency import scaling_efficiency
from repro.perfmodel.machines import PIZ_DAINT, SPRUCE, TITAN
from repro.perfmodel.predict import predict_scaling
from repro.perfmodel.profiles import SolverConfig

#: (label, machine, config, ranks_per_node, node counts)
FIG8_LINES = (
    ("Spruce - PPCG - 1 (MPI)", SPRUCE,
     SolverConfig("ppcg", inner_steps=10, halo_depth=1), 20),
    ("Piz Daint - PPCG - 16 (CUDA)", PIZ_DAINT,
     SolverConfig("ppcg", inner_steps=10, halo_depth=16), 1),
    ("Titan - PPCG - 16 (CUDA)", TITAN,
     SolverConfig("ppcg", inner_steps=10, halo_depth=16), 1),
)


def run_fig8(mesh_n: int = BENCH_MESH,
             n_steps: int = BENCH_STEPS) -> FigureSeries:
    nodes = gpu_node_counts(TITAN.max_nodes)
    fig = FigureSeries(
        name="Fig. 8: scaling efficiency across test systems",
        node_counts=nodes,
        meta={"mesh_n": mesh_n, "n_steps": n_steps})
    for label, machine, config, rpn in FIG8_LINES:
        counts = [n for n in nodes if n <= machine.max_nodes]
        iters = iteration_model_for(config)(mesh_n)
        pts = predict_scaling(machine, config, mesh_n, counts,
                              outer_iters=iters, n_steps=n_steps,
                              ranks_per_node=rpn)
        eff = scaling_efficiency(counts, [p.seconds for p in pts])
        # Pad machines that stop before 8192 nodes.
        fig.add(label, eff + [float("nan")] * (len(nodes) - len(counts)))
    return fig
