"""Rank-local state construction for the TeaLeaf mini-app.

Temperatures live at cell centres; the solved variable is
``u = density * energy`` (TeaLeaf's convention).  Density is static, so the
face coefficient fields are rebuilt from it once per time step (they change
only through ``rx = dt/dx^2`` when the step size changes).
"""

from __future__ import annotations

import numpy as np

from repro.mesh.decomposition import Tile
from repro.mesh.field import Field
from repro.mesh.grid import Grid2D, Grid3D
from repro.mesh.halo import reflect_boundaries
from repro.physics.conduction import (Conductivity, _face_mean,
                                      cell_conductivity, face_coefficients)
from repro.physics.problems import ProblemSpec, crooked_pipe
from repro.utils.validation import require


def global_initial_state(grid: Grid2D | Grid3D, problem: ProblemSpec
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rasterise a problem to global ``(density, energy, u)`` arrays."""
    density, energy = problem.paint(grid)
    return density, energy, density * energy


def first_step_system(
    grid: Grid2D | Grid3D,
    problem: ProblemSpec,
    dt: float = 0.04,
    conductivity: Conductivity | str = Conductivity.RECIP_DENSITY,
    mean: str = "harmonic",
) -> tuple:
    """The global linear system of ``problem``'s first implicit step on
    ``grid``: ``(grid, kx, ky[, kz], u0)`` — the face coefficient arrays of
    ``A = I + dt * L`` and the right-hand side ``u0 = density * energy``.

    This is the one place a painted problem becomes a system: paint,
    :func:`~repro.physics.conduction.cell_conductivity`, ``dt/dx^2`` per
    axis, :func:`~repro.physics.conduction.face_coefficients`.
    :class:`~repro.physics.simulation.Simulation` builds the same
    coefficients rank-locally (:func:`build_coefficient_fields`).
    """
    density, _, u0 = global_initial_state(grid, problem)
    ratios = [dt / d ** 2 for d in grid.spacing]
    faces = face_coefficients(cell_conductivity(density, conductivity),
                              *ratios, mean=mean)
    return (grid, *faces, u0)


def crooked_pipe_system(n: int, dt: float = 0.04) -> tuple:
    """The paper's benchmark system: ``(grid, kx, ky, u0)`` of the
    crooked-pipe first implicit step on an ``n`` x ``n`` mesh."""
    return first_step_system(Grid2D(n, n), crooked_pipe(), dt)


def build_fields(
    tile: Tile,
    halo: int,
    density_global: np.ndarray,
    energy_global: np.ndarray,
) -> dict[str, Field]:
    """Slice this rank's fields out of the global initial state.

    Returns ``{"density", "energy", "u"}`` where ``u`` is the temperature
    (solved variable).
    """
    density = Field.from_global(tile, halo, density_global)
    energy = Field.from_global(tile, halo, energy_global)
    u = Field(tile, halo)
    u.interior[...] = density.interior * energy.interior
    return {"density": density, "energy": energy, "u": u}


def build_coefficient_fields(
    density: Field,
    *ratios_exchanger,
    model: Conductivity | str = Conductivity.RECIP_DENSITY,
    mean: str = "harmonic",
) -> tuple[Field, ...]:
    """Build padded face-coefficient fields ``(Kx, Ky[, Kz])`` on this
    rank, called as ``build_coefficient_fields(density, rx, ry[, rz],
    exchanger)`` with ``rx = dt/dx^2`` and so on.

    ``Kx.data[k, j]`` couples padded cells ``(k, j-1)`` and ``(k, j)``;
    likewise ``Ky`` in y and ``Kz`` in z.  Coefficients are valid over the
    whole padded array (after a full-depth density exchange plus boundary
    reflection), which is what the matrix powers kernel's extended loop
    bounds require.  Faces lying on the physical boundary are zeroed
    (insulated boundary).
    """
    *ratios, exchanger = ratios_exchanger
    tile, h = density.tile, density.halo
    require(len(ratios) == tile.ndim,
            f"a {tile.ndim}-D tile takes {tile.ndim} ratios dt/dx^2, "
            f"got {len(ratios)}")
    # Fresh neighbour data first, then mirror across physical boundaries so
    # the face means are well-defined on every padded cell we may touch.
    exchanger.exchange(density, depth=h)
    reflect_boundaries(density)
    pad = density.data
    # Outer halo corners beyond two physical boundaries are never referenced
    # by any extended-bounds kernel; give them a benign positive value so the
    # conductivity transform (1/rho) stays finite.
    pad[pad <= 0] = 1.0
    kappa = cell_conductivity(pad, model)

    faces = []
    for axis, ratio in zip(reversed(range(tile.ndim)), ratios):
        k = Field(tile, h)
        # Views with ``axis`` in front: index i is the face between cells
        # i - 1 and i along it.
        across, cells = np.moveaxis(k.data, axis, 0), np.moveaxis(kappa, axis, 0)
        across[1:] = ratio * _face_mean(cells[:-1], cells[1:], mean)
        # Insulated physical boundaries: zero the boundary-face coefficients.
        if tile.lower[axis] is None:
            across[h] = 0.0
        if tile.upper[axis] is None:
            across[h + tile.shape[axis]] = 0.0
        faces.append(k)
    return tuple(faces)
