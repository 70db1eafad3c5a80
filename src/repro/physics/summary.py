"""Field summaries (TeaLeaf's ``field_summary`` kernel).

TeaLeaf periodically prints conservation diagnostics: total volume, mass,
internal energy and temperature.  With insulated boundaries the implicit
step conserves internal energy exactly (up to solver tolerance), which the
test-suite checks across decompositions and solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.comm.base import Communicator
from repro.mesh.field import Field
from repro.mesh.grid import Grid2D, Grid3D


@dataclass(frozen=True)
class FieldSummary:
    """Globally reduced state diagnostics."""

    volume: float
    mass: float
    internal_energy: float
    mean_temperature: float
    max_temperature: float
    min_temperature: float

    def __str__(self) -> str:
        return (f"vol={self.volume:.6g} mass={self.mass:.6g} "
                f"ie={self.internal_energy:.6g} "
                f"T(mean/min/max)={self.mean_temperature:.6g}/"
                f"{self.min_temperature:.6g}/{self.max_temperature:.6g}")


def field_summary(grid: Grid2D | Grid3D, density: Field, u: Field,
                  comm: Communicator) -> FieldSummary:
    """Compute the global summary (two allreduces: sums + extrema).

    ``u`` is the temperature field (``density * energy``); internal energy
    is ``sum(u) * cell_volume`` in TeaLeaf's normalisation.
    """
    cell_volume = math.prod(grid.spacing)
    rho = density.interior
    temp = u.interior
    local_sums = np.array([
        rho.size * cell_volume,          # volume
        rho.sum() * cell_volume,         # mass
        temp.sum() * cell_volume,        # internal energy
        temp.sum(),                      # for the mean temperature
    ])
    sums = comm.allreduce(local_sums)
    local_ext = np.array([temp.max(), -temp.min()])
    ext = comm.allreduce(local_ext, op="max")
    return FieldSummary(
        volume=float(sums[0]),
        mass=float(sums[1]),
        internal_energy=float(sums[2]),
        mean_temperature=float(sums[3]) / grid.n_cells,
        max_temperature=float(ext[0]),
        min_temperature=float(-ext[1]),
    )
