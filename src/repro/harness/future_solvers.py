"""Extended study: the §VII solver roadmap at Petascale.

Projects the paper's Fig. 5 axes onto the follow-on solvers this library
implements — classical CG, single-reduction CG, deflated CG and CPPCG —
on the Titan model.  The interesting read-out: each successive technique
removes a different share of the global-communication bill, and CPPCG's
inner iterations remain the only scheme that amortises reductions *and*
halo latency together.
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

#: The roadmap lines: label -> (config, iteration-model config).
#: Deflation does not change iteration counts at the paper's dt (the
#: spectrum is shift-dominated; see EXPERIMENTS.md), so dcg reuses CG's
#: measured counts — it pays its projector reduction for nothing here,
#: which is itself the honest result.
FUTURE_LINES = (
    ("CG", SolverConfig("cg"), SolverConfig("cg")),
    ("CG-fused", SolverConfig("cg_fused"), SolverConfig("cg")),
    ("Deflated CG", SolverConfig("dcg"), SolverConfig("cg")),
    ("CPPCG - 16", SolverConfig("ppcg", inner_steps=10, halo_depth=16),
     SolverConfig("ppcg", inner_steps=10, halo_depth=16)),
)


def run_future_solvers(machine: Machine = TITAN,
                       mesh_n: int = BENCH_MESH,
                       n_steps: int = BENCH_STEPS) -> FigureSeries:
    nodes = gpu_node_counts(machine.max_nodes)
    fig = FigureSeries(
        name=f"Extended: §VII solver roadmap on {machine.name}",
        node_counts=nodes,
        meta={"machine": machine.name, "mesh_n": mesh_n})
    for label, config, iter_config in FUTURE_LINES:
        iters = iteration_model_for(iter_config)(mesh_n)
        pts = predict_scaling(machine, config, mesh_n, nodes,
                              outer_iters=iters, n_steps=n_steps)
        fig.add(label, [p.seconds for p in pts])
    return fig
