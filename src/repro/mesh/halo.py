"""Depth-*d* halo exchange between neighbouring tiles.

The exchange is the classic phased scheme TeaLeaf uses, one phase per
axis, fastest first:

1. **x-phase** — swap ``d`` columns with the left/right neighbours over the
   interior of the other axes;
2. **y-phase** — swap ``d`` rows with the down/up neighbours over the
   column range *including* the x-halos just received;
3. **z-phase** (3-D) — swap ``d`` planes with the back/front neighbours
   including the x- and y-halos.

After all phases every ghost cell within depth ``d`` — including the edge
and corner blocks — holds fresh neighbour data, which is exactly what the
matrix powers kernel requires before running ``d`` stencil applications
without further communication (paper Fig. 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from repro.mesh.field import Field
from repro.utils.errors import CommunicationError
from repro.utils.events import EventLog

# Distinct tag streams per (phase, direction) so concurrent exchanges of
# different fields cannot cross-match: the message travelling toward the
# low neighbour of spatial axis i (x is 0) carries _TAG_LOW + 2 i, the
# one toward the high neighbour the tag after it (x: 101/102, y: 103/104,
# z: 105/106).
_TAG_LOW = 101


@dataclass
class HaloExchanger:
    """Performs ghost-cell exchanges for one rank's fields.

    Parameters
    ----------
    comm:
        A communicator exposing ``send(obj, dest, tag)`` and
        ``recv(source, tag)`` (see :mod:`repro.comm`).
    events:
        Optional :class:`EventLog`; each call records a
        ``("halo_exchange", depth)`` event with the payload byte count.
    tracer:
        Optional :class:`~repro.observe.trace.Tracer`; each call emits a
        ``halo_exchange`` span keyed by depth (null tracer by default).
    kernels:
        Optional :class:`~repro.kernels.KernelBackend` providing the
        ``pack_halo``/``unpack_halo`` kernels (``numpy`` baseline by
        default; the owning operator shares its backend).
    """

    comm: object
    events: EventLog | None = dc_field(default=None)
    tracer: object = dc_field(default=None)
    kernels: object = dc_field(default=None)

    def __post_init__(self) -> None:
        if self.tracer is None:
            # Deferred import: keeps repro.mesh importable without pulling
            # the observability package in at module load.
            from repro.observe.trace import NULL_TRACER
            self.tracer = NULL_TRACER
        if self.kernels is None:
            from repro.kernels import DEFAULT_BACKEND, get_backend
            self.kernels = get_backend(DEFAULT_BACKEND)

    def exchange(self, fields: Field | list[Field], depth: int = 1) -> None:
        """Exchange depth-``depth`` halos for one or more fields.

        Multiple fields passed together are exchanged in one logical event
        (TeaLeaf packs several arrays per message); payload bytes accumulate
        across them.
        """
        if isinstance(fields, Field):
            fields = [fields]
        if not fields:
            return
        tile = fields[0].tile
        for f in fields:
            if f.tile is not tile and f.tile != tile:
                raise CommunicationError(
                    "all fields in one exchange must share a tile")
            if depth > f.halo:
                raise CommunicationError(
                    f"exchange depth {depth} exceeds field halo {f.halo}")
        with self.tracer.span("halo_exchange", depth):
            nbytes = 0
            for axis in reversed(range(tile.ndim)):
                low, high = tile.lower[axis], tile.upper[axis]
                if low is None and high is None:
                    continue
                tag_low = _TAG_LOW + 2 * (tile.ndim - 1 - axis)
                for f in fields:
                    nbytes += self._exchange_axis(
                        f.data, f.slabs(depth)[axis], low, high, tag_low)
        if self.events is not None:
            self.events.record("halo_exchange", depth, bytes=nbytes)

    def _exchange_axis(self, a, slabs: tuple, low, high, tag_low: int) -> int:
        """One phase for one field's array; returns its send + recv
        payload bytes."""
        own_low, ghost_low, own_high, ghost_high, cells = slabs
        tag_high = tag_low + 1
        pack, unpack = self.kernels.pack_halo, self.kernels.unpack_halo
        # Post all sends first (non-blocking deposit), then blocking recvs.
        if low is not None:
            self.comm.send(pack(a, *own_low), dest=low, tag=tag_low)
        if high is not None:
            self.comm.send(pack(a, *own_high), dest=high, tag=tag_high)
        if low is not None:
            unpack(a, *ghost_low, self.comm.recv(source=low, tag=tag_high))
        if high is not None:
            unpack(a, *ghost_high, self.comm.recv(source=high, tag=tag_low))
        return (2 * cells * a.itemsize
                * ((low is not None) + (high is not None)))


def reflect_boundaries(f: Field, depth: int | None = None) -> None:
    """Mirror interior cells into halos on *physical* boundaries.

    TeaLeaf's ``update_halo`` applies reflective (zero-gradient) boundary
    conditions this way.  The linear solvers do not need it — boundary face
    coefficients are zero so ghost values never contribute — but the physics
    driver and visualisation use it to keep ghost data meaningful.  Axes go
    in the exchange's phase order so edge and corner ghosts are consistent.
    """
    t, a = f.tile, f.data
    d = f.halo if depth is None else depth
    if d > f.halo:
        raise CommunicationError(f"reflect depth {d} exceeds halo {f.halo}")
    for axis in reversed(range(t.ndim)):
        own_low, ghost_low, own_high, ghost_high, _ = f.slabs(d)[axis]
        if t.lower[axis] is None:
            a[ghost_low] = np.flip(a[own_low], axis)
        if t.upper[axis] is None:
            a[ghost_high] = np.flip(a[own_high], axis)
