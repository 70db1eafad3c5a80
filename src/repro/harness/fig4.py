"""Fig. 4: convergence of average temperature as the mesh is refined.

The paper runs the crooked pipe to t = 15 at increasing mesh sizes and shows
the domain-averaged temperature flattening out — 4000x4000 is where extra
resolution stops being "scientifically interesting", which justifies the
strong-scaling (rather than weak-scaling) study.

We reproduce the sweep at reduced cost by using a larger implicit step (the
implicit solver is unconditionally stable, so only temporal accuracy — not
the converged-in-mesh trend — is affected; the bench asserts the trend).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mesh.grid import Grid2D
from repro.physics.problems import crooked_pipe
from repro.physics.simulation import run_simulation
from repro.solvers.options import SolverOptions

END_TIME = 15.0
#: Bench step size (paper: 0.04; see module docstring for the substitution).
BENCH_DT = 0.6
DEFAULT_SIZES = (16, 24, 32, 48, 64)


@dataclass
class Fig4Result:
    mesh_sizes: list[int]
    mean_temperatures: list[float]
    dt: float
    end_time: float

    def deltas(self) -> list[float]:
        """Successive |change| in mean temperature (should shrink)."""
        t = self.mean_temperatures
        return [abs(b - a) for a, b in zip(t, t[1:])]


def run_fig4(mesh_sizes: tuple[int, ...] = DEFAULT_SIZES, *,
             dt: float = BENCH_DT, end_time: float = END_TIME,
             eps: float = 1e-8) -> Fig4Result:
    """Mean temperature at ``end_time`` for each mesh size."""
    n_steps = max(1, round(end_time / dt))
    options = SolverOptions(solver="ppcg", eps=eps, ppcg_inner_steps=10)
    means = []
    for n in mesh_sizes:
        report = run_simulation(
            Grid2D(n, n), crooked_pipe(), options,
            dt=dt, n_steps=n_steps, nranks=1, gather_temperature=False)
        means.append(report.final_mean_temperature)
    return Fig4Result(mesh_sizes=list(mesh_sizes), mean_temperatures=means,
                      dt=dt, end_time=end_time)
