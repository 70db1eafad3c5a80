"""Public test/benchmark scaffolding.

Construction helpers used throughout this repository's tests, benchmarks
and examples — exported so downstream experiments can build the same
reference systems in a line or two:

- :func:`crooked_pipe_system` — global operator coefficients and RHS of
  the paper's benchmark first implicit step (:func:`crooked_duct_system`
  is its 3-D analogue); each a one-line call of
  :func:`repro.physics.first_step_system`, the one system builder;
- :func:`random_spd_faces` — random positive face coefficients (an SPD
  ``I + D`` operator) for property-style testing;
- :func:`serial_operator` / :func:`reference_solution` — a one-rank
  operator (from :mod:`repro.solvers.ranks`) and the direct sparse ground
  truth;
- :func:`distributed_solve` — run any :class:`SolverOptions` configuration
  genuinely decomposed over the in-process SPMD world (the rank program,
  :func:`repro.solvers.ranks.solve_on_ranks`, on the bare communicator) and
  return the assembled global solution.
"""

from __future__ import annotations

import numpy as np

from repro.mesh import Grid2D, Grid3D
from repro.physics import (
    crooked_duct_3d,
    crooked_pipe_jump,
    crooked_pipe_system,
    first_step_system,
)
from repro.solvers import StencilOperator
from repro.solvers.ranks import serial_operator, solve_on_ranks

__all__ = [
    "crooked_pipe_system",
    "crooked_pipe_jump_system",
    "crooked_duct_system",
    "random_spd_faces",
    "serial_operator",
    "reference_solution",
    "distributed_solve",
]


def crooked_pipe_jump_system(n: int, jump: float, dt: float = 0.04):
    """Like :func:`crooked_pipe_system` for one ill-conditioned battery
    problem (:func:`~repro.physics.crooked_pipe_jump`): the conductivity
    contrast — and the operator's condition number — scales with ``jump``.
    """
    return first_step_system(Grid2D(n, n), crooked_pipe_jump(jump), dt)


def crooked_duct_system(n: int, dt: float = 0.04):
    """The 3-D analogue: global arrays of the first implicit step of the
    crooked duct on an ``n``^3 grid.

    Returns ``(grid, kx_global, ky_global, kz_global, b_global)``.
    """
    return first_step_system(Grid3D(n, n, n), crooked_duct_3d(), dt)


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


def reference_solution(*faces_b: np.ndarray):
    """Direct sparse solve of the global system ``reference_solution(kx,
    ky[, kz], b)`` (scipy ground truth)."""
    import scipy.sparse.linalg as spla
    *faces, bg = faces_b
    A = StencilOperator.assemble_sparse(*faces)
    return spla.spsolve(A.tocsc(), bg.ravel()).reshape(bg.shape)


def distributed_solve(grid, *system, factors=None):
    """:func:`~repro.solvers.ranks.solve_on_ranks` on the bare communicator,
    called as ``distributed_solve(grid, kx, ky[, kz], b, options, size)``;
    returns (global x, rank-0 result).  ``factors`` overrides the
    process-grid layout ``(px, py[, pz])``."""
    *faces, bg, options, size = system
    run = solve_on_ranks(grid, faces, bg, options, size, factors=factors)
    return run.x, run.result
