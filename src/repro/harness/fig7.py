"""Fig. 7: MPI and hybrid strong scaling on Spruce (1-1024 CPU nodes).

Lines: BoomerAMG* (our MG-CG baseline), CG-1 and PPCG-1, each in hybrid
(one rank per NUMA domain, threads inside) and flat-MPI (one rank per
core) placement.  Only halo depth 1 — matching the paper ("Due to
available time constraints on Spruce, only the results for a halo depth
of 1 were gathered").
"""

from __future__ import annotations

from repro.harness.common import (
    BENCH_MESH,
    BENCH_STEPS,
    FigureSeries,
    iteration_model_for,
    spruce_node_counts,
)
from repro.perfmodel.machines import SPRUCE
from repro.perfmodel.predict import predict_scaling
from repro.perfmodel.profiles import SolverConfig

#: (legend label, config, ranks per node) in the paper's ordering.
SPRUCE_LINES = (
    ("BoomerAMG (Hybrid)", SolverConfig("mgcg"), 2),
    ("CG - 1 (Hybrid)", SolverConfig("cg"), 2),
    ("PPCG - 1 (Hybrid)", SolverConfig("ppcg", inner_steps=10, halo_depth=1), 2),
    ("BoomerAMG (MPI)", SolverConfig("mgcg"), 20),
    ("CG - 1 (MPI)", SolverConfig("cg"), 20),
    ("PPCG - 1 (MPI)", SolverConfig("ppcg", inner_steps=10, halo_depth=1), 20),
)


def run_fig7(mesh_n: int = BENCH_MESH,
             n_steps: int = BENCH_STEPS) -> FigureSeries:
    nodes = spruce_node_counts()
    fig = FigureSeries(name="Fig. 7: MPI and Hybrid strong scaling on Spruce",
                       node_counts=nodes,
                       meta={"machine": SPRUCE.name, "mesh_n": mesh_n,
                             "n_steps": n_steps})
    for label, config, rpn in SPRUCE_LINES:
        iters = iteration_model_for(config)(mesh_n)
        pts = predict_scaling(SPRUCE, config, mesh_n, nodes,
                              outer_iters=iters, n_steps=n_steps,
                              ranks_per_node=rpn)
        fig.add(label, [p.seconds for p in pts])
    return fig
