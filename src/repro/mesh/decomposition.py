"""Rectangular domain decomposition with neighbour topology.

TeaLeaf decomposes the global grid into a ``px`` x ``py`` (x ``pz``) grid of
rectangular tiles, one per MPI rank, choosing the factorisation of the rank
count whose tile aspect ratio best matches the mesh (minimising halo surface,
hence communication volume).  This module reproduces that scheme for 2-D and
3-D grids alike and exposes the neighbour topology each tile needs for halo
exchange.

Everything per-axis is a tuple in **array order** — slowest axis first,
``(y, x)`` or ``(z, y, x)``, the order of ``grid.shape`` — and the familiar
names (``nx``, ``y0``, ``left``, ``front``...) read one entry of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

from repro.mesh.grid import Grid2D, Grid3D
from repro.utils.errors import DecompositionError

#: (low, high) side names by spatial axis: x, y, z.
SIDES = (("left", "right"), ("down", "up"), ("back", "front"))


def _factorisations(n: int, parts: int):
    """Every ordered ``parts``-tuple of positive integers with product ``n``."""
    if parts == 1:
        yield (n,)
        return
    for p in range(1, n + 1):
        if n % p == 0:
            for rest in _factorisations(n // p, parts - 1):
                yield (p, *rest)


def choose_factors(nranks: int, *extents: int) -> tuple[int, ...]:
    """Pick ``(px, py[, pz])`` with product ``nranks`` minimising the cut.

    ``extents`` is the mesh size ``(nx, ny[, nz])``.  The cut surface of a
    layout — ``(px-1)*ny + (py-1)*nx`` cell edges in 2-D, the three face
    terms in 3-D — is minimised exactly over all factorisations, ties
    broken toward fewer ranks along the slower axes (TeaLeaf's preference
    for contiguous rows).
    """
    if nranks < 1:
        raise DecompositionError(f"nranks must be >= 1, got {nranks}")
    cells = math.prod(extents)
    best = None
    for factors in _factorisations(nranks, len(extents)):
        cut = sum((p - 1) * (cells // n) for p, n in zip(factors, extents))
        key = (cut, *factors[:0:-1])
        if best is None or key < best[0]:
            best = (key, factors)
    return best[1]


class _Axis:
    """``tile.<name>``: one entry of the per-axis tuple ``attr``, counted
    from the fastest axis (x is 1); an ``AttributeError`` on a tile with
    fewer axes (``nz`` of a 2-D tile)."""

    def __init__(self, attr: str, axis: int):
        self.attr, self.axis = attr, axis

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, tile, owner=None):
        if tile is None:
            return self
        values = getattr(tile, self.attr)
        if self.axis > len(values):
            raise AttributeError(
                f"a {len(values)}-D tile has no {self.name!r}")
        return values[-self.axis]


@dataclass(frozen=True)
class Tile:
    """One rank's rectangular (cuboid) patch of the global grid.

    Attributes
    ----------
    rank:
        Owning rank id; ranks are laid out row-major over ``coords``
        (x fastest), i.e. ``rank = (cz*py + cy)*px + cx``.
    coords, dims:
        Tile coordinates in, and dimensions of, the process grid.
    lo, hi:
        Global half-open cell ranges ``[lo, hi)`` owned along each axis.
    shape:
        Local interior array shape, ``(ny, nx)`` or ``(nz, ny, nx)``.
    lower, upper:
        Rank owning the neighbouring tile toward smaller / larger indices
        of each axis, or None at a physical boundary.

    By name: ``cx/cy/cz``, ``px/py/pz``, ``x0/y0/z0`` and ``x1/y1/z1``
    (``lo``/``hi``), ``nx/ny/nz`` (``shape``), ``left/down/back``
    (``lower``) and ``right/up/front`` (``upper``).
    """

    rank: int
    coords: tuple[int, ...]
    dims: tuple[int, ...]
    lo: tuple[int, ...]
    hi: tuple[int, ...]
    shape: tuple[int, ...] = field(init=False, compare=False, repr=False)
    lower: tuple = field(init=False, compare=False, repr=False)
    upper: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        # Worked out once: fields read these on every region and exchange.
        strides = [math.prod(self.dims[a + 1:]) for a in range(len(self.dims))]
        for name, value in (
                ("shape", tuple(h - l for l, h in zip(self.lo, self.hi))),
                ("lower", tuple(self.rank - s if c > 0 else None
                                for c, s in zip(self.coords, strides))),
                ("upper", tuple(self.rank + s if c < p - 1 else None
                                for c, p, s in zip(self.coords, self.dims,
                                                   strides)))):
            object.__setattr__(self, name, value)

    cx, cy, cz = (_Axis("coords", axis) for axis in (1, 2, 3))
    px, py, pz = (_Axis("dims", axis) for axis in (1, 2, 3))
    x0, y0, z0 = (_Axis("lo", axis) for axis in (1, 2, 3))
    x1, y1, z1 = (_Axis("hi", axis) for axis in (1, 2, 3))
    nx, ny, nz = (_Axis("shape", axis) for axis in (1, 2, 3))
    left, down, back = (_Axis("lower", axis) for axis in (1, 2, 3))
    right, up, front = (_Axis("upper", axis) for axis in (1, 2, 3))

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def n_cells(self) -> int:
        return math.prod(self.shape)

    @property
    def global_slices(self) -> tuple[slice, ...]:
        """Slices selecting this tile from a global array."""
        return tuple(slice(l, h) for l, h in zip(self.lo, self.hi))

    @property
    def sides(self) -> tuple[tuple[str, str], ...]:
        """The (low, high) side names of each array axis, slowest first."""
        return SIDES[:self.ndim][::-1]

    @property
    def neighbors(self) -> dict[str, int | None]:
        """Neighbour rank (or None) by side name, x sides first."""
        out = {}
        for (low, high), l, u in zip(SIDES, self.lower[::-1],
                                     self.upper[::-1]):
            out[low], out[high] = l, u
        return out

    @property
    def n_neighbors(self) -> int:
        return sum(1 for r in self.lower + self.upper if r is not None)

    def extension(self, depth: int) -> dict[str, int]:
        """Extension amounts toward each neighbour for matrix-powers bounds.

        A side facing a physical boundary never extends (there is no fresh
        halo data there, and boundary face coefficients are zero).
        """
        return {side: (depth if nbr is not None else 0)
                for side, nbr in self.neighbors.items()}


def _split(n: int, parts: int) -> list[tuple[int, int]]:
    """Split ``n`` cells into ``parts`` contiguous near-equal ranges."""
    base, extra = divmod(n, parts)
    ranges, start = [], 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


def decompose(grid: Grid2D | Grid3D, nranks: int,
              factors: tuple[int, ...] | None = None) -> list[Tile]:
    """Decompose ``grid`` into one :class:`Tile` per rank.

    Parameters
    ----------
    grid:
        The global grid, 2-D or 3-D.
    nranks:
        Number of ranks; every rank must receive at least one cell in each
        direction, otherwise :class:`DecompositionError` is raised (the
        paper's strong-scaling limit: "barely four grid points per PE").
    factors:
        Optional explicit ``(px, py[, pz])`` override (must multiply to
        ``nranks``); by default chosen by :func:`choose_factors`.
    """
    extents = grid.shape[::-1]
    if factors is None:
        factors = choose_factors(nranks, *extents)
    elif len(factors) != len(extents) or math.prod(factors) != nranks:
        raise DecompositionError(
            f"factors {'x'.join(map(str, factors))} != nranks {nranks} "
            f"over {len(extents)} axes")
    if any(p > n for p, n in zip(factors, extents)):
        raise DecompositionError(
            f"cannot give each of {'x'.join(map(str, factors))} ranks a "
            f"nonempty tile of a {'x'.join(map(str, extents))} grid")
    dims = tuple(factors)[::-1]
    ranges = [_split(n, p) for n, p in zip(grid.shape, dims)]
    tiles = []
    for rank, coords in enumerate(product(*map(range, dims))):
        lo, hi = zip(*(axis[c] for axis, c in zip(ranges, coords)))
        tiles.append(Tile(rank, coords, dims, lo, hi))
    return tiles


def tile_for_rank(grid: Grid2D | Grid3D, nranks: int, rank: int,
                  factors: tuple[int, ...] | None = None) -> Tile:
    """Convenience: the tile a given ``rank`` owns under :func:`decompose`."""
    if not 0 <= rank < nranks:
        raise DecompositionError(f"rank {rank} out of range [0,{nranks})")
    return decompose(grid, nranks, factors)[rank]
