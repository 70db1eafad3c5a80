"""3D time-stepping driver.

Completes the mini-app's "two and three dimensions via five and seven
point finite difference stencils" (§II).  The paper evaluates 2D only
("the 3D results are similar"), so the 3D driver is small: paint a box
problem, decompose it over in-process ranks (serial is the one-rank
case) and step it with any solver :func:`~repro.solvers.driver.solve_linear`
offers that is not 2D by construction, on the same tiles, fields,
exchange and operator as the 2D mini-app.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.comm.spmd import launch_spmd
from repro.mesh.decomposition import decompose
from repro.mesh.field import Field
from repro.mesh.grid import Grid3D
from repro.mesh.halo import HaloExchanger
from repro.physics.conduction import Conductivity
from repro.physics.state import build_coefficient_fields
from repro.solvers.driver import solve_linear
from repro.solvers.operator import StencilOperator
from repro.solvers.options import SolverOptions
from repro.utils.errors import ConvergenceError
from repro.utils.validation import check_positive, require


@dataclass(frozen=True)
class BoxRegion3D:
    """A density/energy box painted over the background."""

    density: float
    energy: float
    bounds: tuple | None = None  # (xmin, xmax, ymin, ymax, zmin, zmax)

    def mask(self, grid: Grid3D) -> np.ndarray:
        if self.bounds is None:
            return np.ones(grid.shape, dtype=bool)
        X, Y, Z = grid.cell_centers()
        xmin, xmax, ymin, ymax, zmin, zmax = self.bounds
        return ((X >= xmin) & (X < xmax) & (Y >= ymin) & (Y < ymax)
                & (Z >= zmin) & (Z < zmax))


def crooked_duct_3d() -> tuple[BoxRegion3D, ...]:
    """A 3D analogue of the crooked pipe: a kinked low-density duct."""
    return (
        BoxRegion3D(density=100.0, energy=0.0001),
        BoxRegion3D(density=0.1, energy=25.0,
                    bounds=(0.0, 1.0, 1.0, 2.0, 1.0, 2.0)),
        BoxRegion3D(density=0.1, energy=0.1,
                    bounds=(1.0, 6.0, 1.0, 2.0, 1.0, 2.0)),
        BoxRegion3D(density=0.1, energy=0.1,
                    bounds=(5.0, 6.0, 1.0, 8.0, 1.0, 2.0)),
        BoxRegion3D(density=0.1, energy=0.1,
                    bounds=(5.0, 10.0, 7.0, 8.0, 1.0, 2.0)),
    )


def paint_boxes(grid: Grid3D, regions: tuple[BoxRegion3D, ...]
                ) -> tuple[np.ndarray, np.ndarray]:
    """Rasterise ``regions`` (background first, later boxes on top) to
    global ``(density, energy)`` arrays."""
    require(len(regions) >= 1, "need at least a background region")
    require(regions[0].bounds is None,
            "first region must be the background (bounds=None)")
    density, energy = np.empty(grid.shape), np.empty(grid.shape)
    for region in regions:
        m = region.mask(grid)
        density[m] = region.density
        energy[m] = region.energy
    return density, energy


@dataclass
class Simulation3D:
    """3D implicit heat-conduction stepping on ``nranks`` in-process ranks.

    ``options`` selects and configures the solver (default: CG to ``eps``
    within ``max_iters``); ``density`` and the temperature ``u`` are kept
    as global arrays between :meth:`run` calls.
    """

    grid: Grid3D
    regions: tuple[BoxRegion3D, ...]
    dt: float = 0.04
    eps: float = 1e-10
    max_iters: int = 50_000
    conductivity: Conductivity | str = Conductivity.RECIP_DENSITY
    warm_start: bool = True
    nranks: int = 1
    options: SolverOptions | None = None
    time: float = field(default=0.0, init=False)
    step_index: int = field(default=0, init=False)

    def __post_init__(self):
        check_positive("dt", self.dt)
        if self.options is None:
            self.options = SolverOptions(solver="cg", eps=self.eps,
                                         max_iters=self.max_iters)
        self.density, energy = paint_boxes(self.grid, self.regions)
        self.u = self.density * energy

    def step(self) -> dict:
        """One implicit step; returns solve statistics."""
        return self.run(1)[0]

    def run(self, n_steps: int) -> list[dict]:
        """``n_steps`` implicit steps; returns each step's statistics."""
        check_positive("n_steps", n_steps)
        grid, options = self.grid, self.options
        halo = options.required_field_halo
        ratios = [self.dt / d ** 2 for d in (grid.dx, grid.dy, grid.dz)]

        def rank_main(comm):
            tile = decompose(grid, comm.size)[comm.rank]
            exchanger = HaloExchanger(comm)
            kx, ky, kz = build_coefficient_fields(
                Field.from_global(tile, halo, self.density), *ratios,
                exchanger, model=self.conductivity)
            op = StencilOperator(kx=kx, ky=ky, kz=kz, comm=comm,
                                 exchanger=exchanger)
            u = Field.from_global(tile, halo, self.u)
            stats = []
            for _ in range(n_steps):
                result = solve_linear(op, u.copy(),
                                      u if self.warm_start else None,
                                      options=options)
                if not result.converged:
                    raise ConvergenceError(
                        f"3D step {self.step_index + len(stats)} failed: "
                        f"{result.summary()}")
                u = result.x
                stats.append((result.iterations, u.local_sum()))
            return tile, u.interior, stats

        out = launch_spmd(rank_main, self.nranks)
        for tile, part, _ in out:
            self.u[tile.global_slices] = part
        steps = []
        for per_rank in zip(*(stats for _, _, stats in out)):
            self.step_index += 1
            self.time += self.dt
            steps.append({
                "step": self.step_index, "time": self.time,
                "iterations": per_rank[0][0],
                "mean_temperature":
                    sum(total for _, total in per_rank) / grid.n_cells})
        return steps

    def mean_temperature(self) -> float:
        return float(self.u.mean())


def run_simulation_3d_distributed(
    grid: Grid3D,
    regions: tuple[BoxRegion3D, ...],
    *,
    dt: float = 0.04,
    n_steps: int = 1,
    nranks: int = 1,
    eps: float = 1e-10,
    solver: str = "cg",
    inner_steps: int = 10,
    halo_depth: int = 1,
    conductivity: Conductivity | str = Conductivity.RECIP_DENSITY,
) -> dict:
    """A :class:`Simulation3D` run from its initial state on ``nranks``
    ranks; returns the global temperature plus per-step iteration counts."""
    sim = Simulation3D(
        grid, regions, dt=dt, conductivity=conductivity, nranks=nranks,
        options=SolverOptions(solver=solver, eps=eps, halo_depth=halo_depth,
                              ppcg_inner_steps=inner_steps))
    stats = sim.run(n_steps)
    return {"iterations": [s["iterations"] for s in stats],
            "temperature": sim.u}
