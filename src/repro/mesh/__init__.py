"""Structured mesh: grids, rectangular decomposition, halo'd fields.

TeaLeaf stores cell-centred quantities on a regular 2D (or 3D) grid that is
spatially decomposed into rectangular tiles, one per MPI rank, each padded
with ``halo_depth`` layers of ghost cells.  This package provides:

- :class:`Grid2D` / :class:`Grid3D` — global grid geometry,
- :func:`decompose` — rank-count → tile layout with neighbour topology,
- :class:`Field` — a halo-padded cell-centred array with interior views,
- :class:`HaloExchanger` — depth-*d* ghost exchange over a communicator
  (the phase-per-axis scheme that also fills edge and corner halos, as
  required by the matrix powers kernel).

Tiles, fields and the exchange are written once over the dimension: a
:class:`Grid3D` decomposes into 3-D tiles of the same classes.
"""

from repro.mesh.grid import Grid2D, Grid3D
from repro.mesh.decomposition import Tile, decompose, tile_for_rank, choose_factors
from repro.mesh.field import Field
from repro.mesh.halo import HaloExchanger, reflect_boundaries

__all__ = [
    "Grid2D",
    "Grid3D",
    "Tile",
    "decompose",
    "tile_for_rank",
    "choose_factors",
    "Field",
    "HaloExchanger",
    "reflect_boundaries",
]
