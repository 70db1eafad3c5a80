"""Fig. 6: CUDA strong scaling on Piz Daint (1-2048 nodes).

Same configurations as Fig. 5; the interconnect (Aries dragonfly vs
Gemini torus) is what separates the two figures — the paper attributes
Piz Daint's 47% advantage at 2048 nodes to "the fully connected network".
"""

from __future__ import annotations

from repro.harness.common import BENCH_MESH, BENCH_STEPS, FigureSeries
from repro.harness.fig5 import run_gpu_scaling
from repro.perfmodel.machines import PIZ_DAINT


def run_fig6(mesh_n: int = BENCH_MESH,
             n_steps: int = BENCH_STEPS) -> FigureSeries:
    return run_gpu_scaling(PIZ_DAINT,
                           "Fig. 6: CUDA strong scaling on Piz Daint",
                           mesh_n, n_steps)
