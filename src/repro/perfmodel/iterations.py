"""Iteration-count measurement and mesh-size extrapolation.

For this operator the condition number grows like ``kappa ~ 1 + c N^2`` at
fixed time step (``rx = dt/dx^2`` with ``dx ~ 1/N``), so CG iterations grow
linearly in ``N`` (Eq. 6) and CPPCG outer iterations grow linearly with a
much smaller slope (Eq. 7).  MG-CG iteration counts are nearly
``N``-independent (that is the point of multigrid).

We therefore *measure* iteration counts with real solves of the
crooked-pipe first step at tractable mesh sizes, fit ``iters = a + b N``,
and evaluate the fit at the paper's 4000.  The linearity itself is
validated empirically in the test-suite and the Fig. 5 ablation bench.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.perfmodel.profiles import SolverConfig
from repro.physics.state import crooked_pipe_system
from repro.solvers.options import SolverOptions
from repro.solvers.ranks import solve_on_ranks
from repro.utils.errors import ConfigurationError
from repro.utils.validation import check_positive

#: Default measurement mesh sizes (kept small: these run real solves).
DEFAULT_MEASURE_SIZES = (64, 96, 128)


def _options_for(config: SolverConfig, eps: float) -> SolverOptions:
    return SolverOptions(
        solver=config.solver,
        eps=eps,
        max_iters=100_000,
        preconditioner=config.preconditioner,
        ppcg_inner_steps=config.inner_steps,
        halo_depth=config.halo_depth,
    )


@lru_cache(maxsize=256)
def _measure_one(config_key: tuple, mesh_n: int, eps: float, dt: float
                 ) -> tuple[int, int, int]:
    """Solve the crooked-pipe first step serially; return iteration counts.

    Returns ``(outer, inner, warmup)``.
    """
    config = SolverConfig(*config_key)
    grid, *faces, u0 = crooked_pipe_system(mesh_n, dt)
    result = solve_on_ranks(grid, faces, u0,
                            _options_for(config, eps)).result
    if not result.converged:
        raise ConfigurationError(
            f"measurement solve did not converge: {result.summary()}")
    return (result.iterations, result.inner_iterations,
            result.warmup_iterations)


def measure_iteration_counts(
    config: SolverConfig,
    mesh_sizes: tuple[int, ...] = DEFAULT_MEASURE_SIZES,
    eps: float = 1e-10,
    dt: float = 0.04,
) -> dict[int, int]:
    """Outer-iteration counts from real solves at each mesh size."""
    key = (config.solver, config.inner_steps, config.halo_depth,
           config.preconditioner)
    return {n: _measure_one(key, n, eps, dt)[0] for n in mesh_sizes}


@dataclass(frozen=True)
class IterationModel:
    """Iteration-count growth model (floored at 1).

    ``form="linear"``: ``iters(N) = a + b N`` — the sqrt(kappa) ~ N law of CG-type
    solvers on this operator.  ``form="log"``: ``iters(N) = a + b ln N`` —
    the near-mesh-independent convergence of multigrid-preconditioned CG.
    """

    a: float
    b: float
    measured: tuple[tuple[int, int], ...]
    form: str = "linear"

    def _basis(self, mesh_n) -> np.ndarray:
        x = np.asarray(mesh_n, dtype=float)
        return np.log(x) if self.form == "log" else x

    def __call__(self, mesh_n: int) -> float:
        check_positive("mesh_n", mesh_n)
        return max(1.0, self.a + self.b * float(self._basis(mesh_n)))

    @property
    def r_squared(self) -> float:
        ns = np.array([n for n, _ in self.measured], dtype=float)
        ys = np.array([y for _, y in self.measured], dtype=float)
        pred = self.a + self.b * self._basis(ns)
        ss_res = float(np.sum((ys - pred) ** 2))
        ss_tot = float(np.sum((ys - ys.mean()) ** 2))
        return 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


def fit_iteration_model(
    config: SolverConfig,
    mesh_sizes: tuple[int, ...] = DEFAULT_MEASURE_SIZES,
    eps: float = 1e-10,
    dt: float = 0.04,
) -> IterationModel:
    """Measure at ``mesh_sizes`` and least-squares fit the growth law.

    Krylov configurations fit linearly in ``N``; MG-CG fits in ``ln N``
    (multigrid's iteration count is nearly mesh-independent, so linear
    extrapolation of its tiny slope would wildly overshoot at 4000).
    """
    form = "log" if config.solver == "mgcg" else "linear"
    counts = measure_iteration_counts(config, mesh_sizes, eps=eps, dt=dt)
    ns = np.array(sorted(counts), dtype=float)
    ys = np.array([counts[int(n)] for n in ns], dtype=float)
    measured = tuple((int(n), int(y)) for n, y in zip(ns, ys))
    if len(ns) == 1:
        return IterationModel(a=float(ys[0]), b=0.0, measured=measured,
                              form=form)
    xs = np.log(ns) if form == "log" else ns
    b, a = np.polyfit(xs, ys, 1)
    return IterationModel(a=float(a), b=float(b), measured=measured, form=form)
