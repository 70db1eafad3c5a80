"""Halo-padded 3D cell-centred fields.

Mirrors :class:`repro.mesh.field.Field` for cuboid tiles; the region/
extended API returns a 3-slice tuple so the dimension-agnostic solver code
can index ``data[region]`` without caring about rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernels import DEFAULT_BACKEND, get_backend
from repro.mesh.decomposition3d import Tile3D
from repro.utils.validation import check_positive, require


@dataclass
class Field3D:
    """A rank-local 3D array padded with ghost layers."""

    tile: Tile3D
    halo: int
    data: np.ndarray = None

    def __post_init__(self):
        check_positive("halo", self.halo)
        h = self.halo
        shape = (self.tile.nz + 2 * h, self.tile.ny + 2 * h,
                 self.tile.nx + 2 * h)
        if self.data is None:
            self.data = np.zeros(shape, dtype=np.float64)
        else:
            require(self.data.shape == shape,
                    f"padded data shape {self.data.shape} != {shape}")

    @classmethod
    def from_global(cls, tile: Tile3D, halo: int,
                    global_array: np.ndarray) -> "Field3D":
        f = cls(tile, halo)
        f.interior[...] = global_array[tile.global_slices]
        return f

    @classmethod
    def like(cls, other: "Field3D") -> "Field3D":
        return cls(other.tile, other.halo)

    def copy(self) -> "Field3D":
        return Field3D(self.tile, self.halo, self.data.copy())

    @property
    def interior(self) -> np.ndarray:
        h, t = self.halo, self.tile
        return self.data[h:h + t.nz, h:h + t.ny, h:h + t.nx]

    @interior.setter
    def interior(self, value) -> None:
        h, t = self.halo, self.tile
        self.data[h:h + t.nz, h:h + t.ny, h:h + t.nx] = value

    def region(self, ext: dict[str, int] | int = 0
               ) -> tuple[slice, slice, slice]:
        """Padded slices of the interior grown by ``ext`` per side."""
        if isinstance(ext, int):
            ext = self.tile.extension(ext)
        for side, e in ext.items():
            require(0 <= e <= self.halo,
                    f"extension {e} on {side} exceeds halo {self.halo}")
        h, t = self.halo, self.tile
        planes = slice(h - ext.get("back", 0), h + t.nz + ext.get("front", 0))
        rows = slice(h - ext.get("down", 0), h + t.ny + ext.get("up", 0))
        cols = slice(h - ext.get("left", 0), h + t.nx + ext.get("right", 0))
        return planes, rows, cols

    def extended(self, ext: dict[str, int] | int) -> np.ndarray:
        return self.data[self.region(ext)]

    def fill(self, value: float) -> "Field3D":
        self.data.fill(value)
        return self

    # In-place region updates under :class:`~repro.mesh.field.Field`'s
    # names, so solvers stay dimension-agnostic; on the 3-D views.

    def _view(self, ext: int) -> np.ndarray:
        return self.extended(ext) if ext else self.interior

    def axpy(self, alpha: float, other: "Field3D", kernels,
             ext: int = 0) -> None:
        """``self += alpha * other`` on ``region(ext)``, by ``kernels.axpy``."""
        kernels.axpy(self._view(ext), alpha, other._view(ext))

    def aypx(self, beta: float, other: "Field3D", ext: int = 0) -> None:
        """``self = beta * self + other`` on ``region(ext)``."""
        y = self._view(ext)
        np.multiply(y, beta, out=y)
        np.add(y, other._view(ext), out=y)

    def local_dot(self, other: "Field3D", kernels=None) -> float:
        """Rank-local interior dot product, reduced by ``kernels.dot``
        (a throwaway baseline backend when none is given).

        Both operands are one view when ``other is self``, so the
        backend copies the strided interior to workspace once, not twice.
        """
        if kernels is None:
            kernels = get_backend(DEFAULT_BACKEND)
        a = self.interior
        return kernels.dot(a, a if other is self else other.interior)

    def local_sum(self) -> float:
        return float(self.interior.sum())

    def local_norm2(self) -> float:
        return self.local_dot(self)
