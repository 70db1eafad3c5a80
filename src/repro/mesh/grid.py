"""Global grid geometry for the TeaLeaf mini-app.

Cells are indexed ``(k, j)`` = (row/y, column/x) to match NumPy's C-ordering
(``x`` is the contiguous axis).  The paper's Listing 1 uses ``(j, k)`` Fortran
indexing; the stencils are identical, only the storage order differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.validation import check_positive, require


@dataclass(frozen=True)
class Grid2D:
    """A global 2D regular grid of ``nx`` x ``ny`` cells.

    Parameters
    ----------
    nx, ny:
        Number of cells in x and y.
    extent:
        Physical bounds ``(xmin, xmax, ymin, ymax)``; defaults to the
        TeaLeaf convention of a ``10 x 10`` box.
    """

    nx: int
    ny: int
    extent: tuple[float, float, float, float] = (0.0, 10.0, 0.0, 10.0)

    def __post_init__(self):
        check_positive("nx", self.nx)
        check_positive("ny", self.ny)
        xmin, xmax, ymin, ymax = self.extent
        require(xmax > xmin and ymax > ymin, f"degenerate extent {self.extent}")

    @property
    def dx(self) -> float:
        xmin, xmax, _, _ = self.extent
        return (xmax - xmin) / self.nx

    @property
    def dy(self) -> float:
        _, _, ymin, ymax = self.extent
        return (ymax - ymin) / self.ny

    @property
    def spacing(self) -> tuple[float, float]:
        """Cell widths ``(dx, dy)``, one per axis in coordinate order."""
        return (self.dx, self.dy)

    @property
    def shape(self) -> tuple[int, int]:
        """Array shape ``(ny, nx)`` of a cell-centred global field."""
        return (self.ny, self.nx)

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(X, Y)`` arrays of shape ``(ny, nx)`` with cell centres."""
        xmin, _, ymin, _ = self.extent
        x = xmin + (np.arange(self.nx) + 0.5) * self.dx
        y = ymin + (np.arange(self.ny) + 0.5) * self.dy
        return np.meshgrid(x, y)

    def refined(self, factor: int) -> "Grid2D":
        """Same physical domain with ``factor``x more cells per axis."""
        check_positive("factor", factor)
        return Grid2D(self.nx * factor, self.ny * factor, self.extent)

    def coarsened(self, factor: int = 2) -> "Grid2D":
        """Same physical domain with ``factor``x fewer cells per axis."""
        require(
            self.nx % factor == 0 and self.ny % factor == 0,
            f"grid {self.nx}x{self.ny} not divisible by coarsening factor {factor}",
        )
        return Grid2D(self.nx // factor, self.ny // factor, self.extent)


@dataclass(frozen=True)
class Grid3D:
    """A global 3D regular grid of ``nx`` x ``ny`` x ``nz`` cells.

    The paper's evaluation is 2D ("the 3D results are similar"); the 3D grid
    backs the 7-point operator and its serial solvers.
    """

    nx: int
    ny: int
    nz: int
    extent: tuple[float, float, float, float, float, float] = (
        0.0, 10.0, 0.0, 10.0, 0.0, 10.0,
    )

    def __post_init__(self):
        check_positive("nx", self.nx)
        check_positive("ny", self.ny)
        check_positive("nz", self.nz)
        xmin, xmax, ymin, ymax, zmin, zmax = self.extent
        require(
            xmax > xmin and ymax > ymin and zmax > zmin,
            f"degenerate extent {self.extent}",
        )

    @property
    def dx(self) -> float:
        return (self.extent[1] - self.extent[0]) / self.nx

    @property
    def dy(self) -> float:
        return (self.extent[3] - self.extent[2]) / self.ny

    @property
    def dz(self) -> float:
        return (self.extent[5] - self.extent[4]) / self.nz

    @property
    def spacing(self) -> tuple[float, float, float]:
        """Cell widths ``(dx, dy, dz)``, one per axis in coordinate order."""
        return (self.dx, self.dy, self.dz)

    @property
    def shape(self) -> tuple[int, int, int]:
        """Array shape ``(nz, ny, nx)`` of a cell-centred global field."""
        return (self.nz, self.ny, self.nx)

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny * self.nz

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(X, Y, Z)`` arrays of shape ``(nz, ny, nx)``."""
        xmin, _, ymin, _, zmin, _ = self.extent
        x = xmin + (np.arange(self.nx) + 0.5) * self.dx
        y = ymin + (np.arange(self.ny) + 0.5) * self.dy
        z = zmin + (np.arange(self.nz) + 0.5) * self.dz
        Z, Y, X = np.meshgrid(z, y, x, indexing="ij")
        return X, Y, Z
