"""Fig. 3: the crooked-pipe temperature field after 15 microseconds.

The paper renders the 4000x4000 domain; we run the same physics at a reduced
mesh (the field's structure — heat racing down the low-density pipe, barely
entering the dense material — is mesh-converged long before 4000, which is
Fig. 4's very point) and render it as an ASCII heat map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.io.ascii_viz import render_heatmap
from repro.mesh.grid import Grid2D
from repro.physics.problems import crooked_pipe
from repro.physics.simulation import SimulationReport, run_simulation
from repro.solvers.options import SolverOptions

#: The paper's time step and end time (microseconds).
DT = 0.04
END_TIME = 15.0


@dataclass
class Fig3Result:
    report: SimulationReport
    mesh_n: int
    end_time: float

    @property
    def temperature(self) -> np.ndarray:
        return self.report.temperature

    def pipe_mask(self) -> np.ndarray:
        """Cells inside the crooked pipe (the low-density region)."""
        grid = Grid2D(self.mesh_n, self.mesh_n)
        density, _ = crooked_pipe().paint(grid)
        return density < 1.0

    def render(self, width: int = 72) -> str:
        return render_heatmap(self.temperature, width=width)


def run_fig3(mesh_n: int = 48, *, dt: float = DT, end_time: float = END_TIME,
             nranks: int = 1, eps: float = 1e-8) -> Fig3Result:
    """Run the crooked-pipe problem to ``end_time`` and return the field."""
    n_steps = max(1, round(end_time / dt))
    options = SolverOptions(solver="ppcg", eps=eps, ppcg_inner_steps=10)
    report = run_simulation(
        Grid2D(mesh_n, mesh_n), crooked_pipe(), options,
        dt=dt, n_steps=n_steps, nranks=nranks)
    return Fig3Result(report=report, mesh_n=mesh_n, end_time=end_time)
