"""Fig. 5: CUDA strong scaling on Titan (1-8192 nodes).

Lines: CG-1 and PPCG at matrix-powers halo depths 1/4/8/16.  Iteration
counts come from real measured solves (extrapolated in N); times from the
Titan machine model.
"""

from __future__ import annotations

from repro.harness.common import (
    BENCH_MESH,
    BENCH_STEPS,
    FigureSeries,
    gpu_node_counts,
    iteration_model_for,
)
from repro.perfmodel.machines import TITAN, Machine
from repro.perfmodel.predict import predict_scaling
from repro.perfmodel.profiles import SolverConfig

#: The figure's configurations, in legend order.
GPU_CONFIGS = (
    SolverConfig("cg"),
    SolverConfig("ppcg", inner_steps=10, halo_depth=1),
    SolverConfig("ppcg", inner_steps=10, halo_depth=4),
    SolverConfig("ppcg", inner_steps=10, halo_depth=8),
    SolverConfig("ppcg", inner_steps=10, halo_depth=16),
)


def run_gpu_scaling(machine: Machine, name: str,
                    mesh_n: int = BENCH_MESH,
                    n_steps: int = BENCH_STEPS) -> FigureSeries:
    """Shared Fig. 5 / Fig. 6 driver for a GPU machine."""
    nodes = gpu_node_counts(machine.max_nodes)
    fig = FigureSeries(name=name, node_counts=nodes,
                       meta={"machine": machine.name, "mesh_n": mesh_n,
                             "n_steps": n_steps})
    for config in GPU_CONFIGS:
        iters = iteration_model_for(config)(mesh_n)
        pts = predict_scaling(machine, config, mesh_n, nodes,
                              outer_iters=iters, n_steps=n_steps)
        fig.add(config.label, [p.seconds for p in pts])
    return fig


def run_fig5(mesh_n: int = BENCH_MESH,
             n_steps: int = BENCH_STEPS) -> FigureSeries:
    return run_gpu_scaling(TITAN, "Fig. 5: CUDA strong scaling on Titan",
                           mesh_n, n_steps)
