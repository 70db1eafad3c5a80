"""Halo-padded cell-centred fields, 2-D or 3-D.

A :class:`Field` owns its tile's interior — ``(ny, nx)`` or
``(nz, ny, nx)`` — padded by the halo depth ``h`` on every side.
TeaLeaf's matrix powers kernel needs halos "up to 16 deep", so the
depth is a per-field parameter; the interior and arbitrarily *extended*
regions (interior grown by ``e <= h`` cells toward neighbouring ranks) are
exposed as NumPy views so kernels never copy.

In-place updates of a region (:meth:`Field.axpy`, :meth:`Field.aypx`) do
not walk that strided view: they run over the region's **span** —
the one contiguous 1-D run of the padded buffer from its first cell to
its last — and put back the halo cells lying in between (the *gaps*:
between two rows of a plane and, in 3-D, between two planes), so every
cell outside the region keeps its bits (``docs/kernels.md``,
"Contiguous spans").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.kernels import DEFAULT_BACKEND, get_backend
from repro.mesh.decomposition import Tile
from repro.utils.validation import check_positive, require


class _Span(NamedTuple):
    """One region of one padded buffer as 1-D memory (see ``Field._span``)."""

    cells: np.ndarray   # flat[first region cell : last region cell + 1]
    gaps: tuple         # the halo cells inside it, one strided view per
    #                     axis but the fastest (2-D: rows - 1 runs of
    #                     pitch - cols cells), each paired with the
    #                     buffer an update parks its values in
    where: tuple        # (padded shape, region bounds): equal = same layout


@dataclass
class Field:
    """A rank-local cell-centred array padded with ghost layers.

    Parameters
    ----------
    tile:
        The owning tile (provides interior shape and neighbour topology).
    halo:
        Ghost-layer depth ``h >= 1``.
    data:
        Optional pre-existing padded array (``tile.shape`` plus ``2h``
        along every axis); allocated (zeros) when omitted.
    dtype:
        Working precision of the allocated array (ignored when ``data`` is
        supplied — the field then adopts ``data.dtype``).  Defaults to
        float64, matching TeaLeaf; :mod:`repro.numerics` passes float32
        here for mixed-precision solves.
    """

    tile: Tile
    halo: int
    data: np.ndarray = None
    dtype: np.dtype = np.float64

    def __post_init__(self):
        check_positive("halo", self.halo)
        h = self.halo
        shape = tuple(n + 2 * h for n in self.tile.shape)
        if self.data is None:
            self.data = np.zeros(shape, dtype=self.dtype)
        else:
            require(self.data.shape == shape,
                    f"padded data shape {self.data.shape} != expected {shape}")
        self.dtype = self.data.dtype
        # Geometry, worked out once per field: the padded-array slices of
        # the interior grown by a uniform extension (0: the interior
        # itself), and the exchange's slabs by depth.
        self._regions = {0: tuple(slice(h, h + n) for n in self.tile.shape)}
        self._slabs = {}
        # The buffer the cached spans view, and those spans by extension.
        self._spans_of, self._spans = None, {}

    def __getstate__(self) -> dict:
        # A pickle or deepcopy duplicates ``data`` and would duplicate the
        # cached views as detached arrays, no longer windows of it: the
        # copy starts without spans and builds its own.
        return {**self.__dict__, "_spans_of": None, "_spans": {}}

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_global(cls, tile: Tile, halo: int, global_array: np.ndarray,
                    dtype: np.dtype = np.float64) -> "Field":
        """Create a field whose interior is this tile's slice of a global array."""
        f = cls(tile, halo, dtype=dtype)
        f.interior[...] = global_array[tile.global_slices]
        return f

    @classmethod
    def like(cls, other: "Field") -> "Field":
        """A zeroed field with the same tile, halo depth and dtype."""
        return cls(other.tile, other.halo, dtype=other.dtype)

    def copy(self) -> "Field":
        return Field(self.tile, self.halo, self.data.copy())

    # -- views --------------------------------------------------------------

    @property
    def interior(self) -> np.ndarray:
        """View of the owned (non-ghost) cells, shape ``tile.shape``."""
        return self.data[self._regions[0]]

    @interior.setter
    def interior(self, value) -> None:
        # Enables `f.interior += v` / `f.interior = arr`: the augmented
        # assignment mutates the view in place and then re-assigns it here.
        self.data[self._regions[0]] = value

    def region(self, ext: dict[str, int] | int = 0) -> tuple[slice, ...]:
        """Padded-array slices of the interior grown by ``ext`` per side,
        one per axis (slowest first).

        ``ext`` is either a uniform integer or a dict with keys
        ``left/right/down/up`` (and ``back/front`` in 3-D).  Growth is
        clipped to sides that actually have a neighbouring rank (physical
        boundaries never extend); this is the "extended loop bounds" of
        the matrix powers kernel (paper Fig. 2).
        """
        if isinstance(ext, int):
            try:
                return self._regions[ext]
            except KeyError:
                region = self.region(self.tile.extension(ext))
                self._regions[ext] = region
                return region
        for side, e in ext.items():
            require(0 <= e <= self.halo,
                    f"extension {e} on {side} exceeds halo depth {self.halo}")
        h, t = self.halo, self.tile
        return tuple(slice(h - ext.get(low, 0), h + n + ext.get(high, 0))
                     for n, (low, high) in zip(t.shape, t.sides))

    def slabs(self, depth: int) -> tuple:
        """What a depth-``depth`` halo exchange (or boundary reflection)
        moves, per axis: the padded-array slices of the owned cells next
        to the low side and of the ghosts beyond it, the same two for the
        high side, and the cell count of one such slab.  Faster axes,
        whose phase runs earlier, span their halos too (so edges and
        corners propagate); slower ones span their interior only."""
        try:
            return self._slabs[depth]
        except KeyError:
            pass
        h, shape = self.halo, self.tile.shape
        per_axis = []
        for axis, n in enumerate(shape):
            box = [slice(h, h + m) if a < axis
                   else slice(h - depth, h + m + depth)
                   for a, m in enumerate(shape)]
            per_axis.append((
                *((*box[:axis], slice(start, start + depth), *box[axis + 1:])
                  for start in (h, h - depth, h + n - depth, h + n)),
                depth * math.prod(s.stop - s.start
                                  for s in box[:axis] + box[axis + 1:])))
        self._slabs[depth] = tuple(per_axis)
        return self._slabs[depth]

    def extended(self, ext: dict[str, int] | int) -> np.ndarray:
        """View of the interior grown by ``ext`` toward neighbouring ranks."""
        return self.data[self.region(ext)]

    # -- mutation helpers ----------------------------------------------------

    def fill(self, value: float) -> "Field":
        self.data.fill(value)
        return self

    def zero_halos(self) -> "Field":
        """Zero every ghost cell, keeping the interior intact."""
        keep = self.interior.copy()
        self.data.fill(0.0)
        self.interior[...] = keep
        return self

    # -- in-place region updates (next to local_dot: where fields pair up) ----

    def _span(self, ext: int) -> _Span | None:
        """The span of ``region(ext)``: views built once per ``data``
        buffer (rebinding ``data`` drops them), never per call; ``None``
        for a buffer that is not C-contiguous."""
        if self._spans_of is not self.data:
            self._spans_of, self._spans = self.data, {}
        try:
            return self._spans[ext]
        except KeyError:
            pass
        span = None
        if self.data.flags.c_contiguous:
            data, region = self.data, self.region(ext)
            extents = [s.stop - s.start for s in region]
            strides = [math.prod(data.shape[a + 1:])
                       for a in range(data.ndim)]
            start = sum(s.start * st for s, st in zip(region, strides))
            # run[a]: cells from the first to the last region cell at one
            # index of every axis slower than ``a`` (run[0] is the span).
            run = [sum((n - 1) * st for n, st in zip(extents[a:], strides[a:]))
                   + 1 for a in range(data.ndim)]
            # Between two consecutive indices of axis ``a`` the span
            # crosses ``strides[a] - run[a + 1]`` cells outside the region.
            gaps = tuple(
                np.ndarray(
                    (*extents[:a], extents[a] - 1, strides[a] - run[a + 1]),
                    data.dtype, buffer=data,
                    offset=(start + run[a + 1]) * data.itemsize,
                    strides=[st * data.itemsize
                             for st in (*strides[:a + 1], 1)])
                for a in range(data.ndim - 1))
            span = _Span(
                data.reshape(-1)[start:start + run[0]],
                tuple((g, np.empty(g.shape, data.dtype)) for g in gaps),
                (data.shape, tuple((s.start, s.stop) for s in region)))
        self._spans[ext] = span
        return span

    def _update(self, other: "Field", ext: int, update) -> None:
        """``update(y, x)`` on ``region(ext)`` of ``self``/``other``, as
        spans when both buffers lay the region out alike (else as the
        strided views).  The gaps are computed on too — halo values, so their
        overflow/invalid flags mean nothing — and restored whatever
        ``update`` does, so only the region's cells change."""
        y, x = self._span(ext), other._span(ext)
        if y is None or x is None or y.where != x.where:
            update(self.data[self.region(ext)], other.data[other.region(ext)])
            return
        for gap, saved in y.gaps:
            np.copyto(saved, gap)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                update(y.cells, x.cells)
        finally:
            for gap, saved in y.gaps:
                np.copyto(gap, saved)

    def axpy(self, alpha: float, other: "Field", kernels, ext: int = 0) -> None:
        """``self += alpha * other`` on ``region(ext)``, by ``kernels.axpy``."""
        self._update(other, ext, lambda y, x: kernels.axpy(y, alpha, x))

    def aypx(self, beta: float, other: "Field", kernels, ext: int = 0) -> None:
        """``self = beta * self + other`` on ``region(ext)``, by
        ``kernels.aypx``: the direction update of CG and Chebyshev."""
        self._update(other, ext, lambda y, x: kernels.aypx(y, beta, x))

    # -- reductions (rank-local; global reductions live on the operator) -----

    def local_dot(self, other: "Field", kernels=None) -> float:
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
        """Rank-local squared 2-norm of the interior."""
        return self.local_dot(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Field(rank={self.tile.rank}, interior={self.tile.shape}, "
                f"halo={self.halo})")
