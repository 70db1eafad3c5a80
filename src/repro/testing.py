"""Public test/benchmark scaffolding.

Construction helpers used throughout this repository's tests, benchmarks
and examples — exported so downstream experiments can build the same
reference systems in a line or two:

- :func:`crooked_pipe_system` — global operator coefficients and RHS of
  the paper's benchmark first implicit step (:func:`crooked_duct_system`
  is its 3-D analogue);
- :func:`random_spd_faces` — random positive face coefficients (an SPD
  ``I + D`` operator) for property-style testing;
- :func:`serial_operator` / :func:`reference_solution` — a one-rank
  operator and the direct sparse ground truth;
- :func:`distributed_solve` — run any :class:`SolverOptions` configuration
  genuinely decomposed over the in-process SPMD world and return the
  assembled global solution.
"""

from __future__ import annotations

import numpy as np

from repro.comm import SerialComm, launch_spmd
from repro.mesh import Field, Grid2D, Grid3D, decompose
from repro.physics import (
    cell_conductivity,
    crooked_duct_3d,
    crooked_pipe,
    crooked_pipe_jump,
    face_coefficients,
    face_coefficients_3d,
    global_initial_state,
)
from repro.physics.simulation3d import paint_boxes
from repro.solvers import StencilOperator, solve_linear

__all__ = [
    "crooked_pipe_system",
    "crooked_pipe_jump_system",
    "crooked_duct_system",
    "random_spd_faces",
    "serial_operator",
    "reference_solution",
    "distributed_solve",
]


def crooked_pipe_system(n: int, dt: float = 0.04):
    """Global arrays of the crooked-pipe first implicit step.

    Returns ``(grid, kx_global, ky_global, b_global)``.
    """
    grid = Grid2D(n, n)
    density, _, u0 = global_initial_state(grid, crooked_pipe())
    kappa = cell_conductivity(density)
    rx = dt / grid.dx ** 2
    ry = dt / grid.dy ** 2
    kxg, kyg = face_coefficients(kappa, rx, ry)
    return grid, kxg, kyg, u0


def crooked_pipe_jump_system(n: int, jump: float, dt: float = 0.04):
    """Like :func:`crooked_pipe_system` for one ill-conditioned battery
    problem (:func:`~repro.physics.crooked_pipe_jump`): the conductivity
    contrast — and the operator's condition number — scales with ``jump``.
    """
    grid = Grid2D(n, n)
    density, _, u0 = global_initial_state(grid, crooked_pipe_jump(jump))
    kappa = cell_conductivity(density)
    rx = dt / grid.dx ** 2
    ry = dt / grid.dy ** 2
    kxg, kyg = face_coefficients(kappa, rx, ry)
    return grid, kxg, kyg, u0


def crooked_duct_system(n: int, dt: float = 0.04):
    """The 3-D analogue: global arrays of the first implicit step of the
    crooked duct on an ``n``^3 grid.

    Returns ``(grid, kx_global, ky_global, kz_global, b_global)``.
    """
    grid = Grid3D(n, n, n)
    density, energy = paint_boxes(grid, crooked_duct_3d())
    ratios = [dt / d ** 2 for d in (grid.dx, grid.dy, grid.dz)]
    return (grid, *face_coefficients_3d(cell_conductivity(density), *ratios),
            density * energy)


def random_spd_faces(rng: np.random.Generator, *shape: int,
                     scale: float = 1.0):
    """Random positive face coefficients ``(kx, ky[, kz])`` of a mesh of
    ``shape`` — ``(ny, nx)`` or ``(nz, ny, nx)`` — with zero
    physical-boundary faces."""
    faces = []
    for axis in reversed(range(len(shape))):
        k = np.zeros([n + (a == axis) for a, n in enumerate(shape)])
        inner = tuple(slice(1, n) if a == axis else slice(None)
                      for a, n in enumerate(shape))
        k[inner] = scale * rng.uniform(0.1, 2.0, size=k[inner].shape)
        faces.append(k)
    return tuple(faces)


def serial_operator(grid, *faces: np.ndarray, halo: int = 1
                    ) -> StencilOperator:
    """A one-rank operator over the whole grid, from its global face
    arrays ``kx, ky[, kz]``."""
    tile = decompose(grid, 1)[0]
    return StencilOperator.from_global_faces(tile, halo, *faces, SerialComm())


def reference_solution(*faces_b: np.ndarray):
    """Direct sparse solve of the global system ``reference_solution(kx,
    ky[, kz], b)`` (scipy ground truth)."""
    import scipy.sparse.linalg as spla
    *faces, bg = faces_b
    A = StencilOperator.assemble_sparse(*faces)
    return spla.spsolve(A.tocsc(), bg.ravel()).reshape(bg.shape)


def distributed_solve(grid, *system, factors=None):
    """Solve on a ``size``-rank world, called as ``distributed_solve(grid,
    kx, ky[, kz], b, options, size)``; returns (global x, rank-0 result).
    ``factors`` overrides the process-grid layout ``(px, py[, pz])``."""
    *faces, bg, options, size = system

    def rank_main(comm):
        tile = decompose(grid, comm.size, factors)[comm.rank]
        halo = options.required_field_halo
        op = StencilOperator.from_global_faces(tile, halo, *faces, comm)
        b = Field.from_global(tile, halo, bg)
        result = solve_linear(op, b, options=options)
        return tile, result

    out = launch_spmd(rank_main, size)
    x = np.zeros(grid.shape)
    for tile, result in out:
        x[tile.global_slices] = result.x.interior
    return x, out[0][1]
