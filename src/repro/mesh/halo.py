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
        across them.  Each field's plan (:meth:`Field.halo_plan`) is built
        once; per phase, field by field, all sends are posted (non-blocking
        deposits) before the blocking receives.
        """
        if isinstance(fields, Field):
            fields = (fields,)
        if not fields:
            return
        tile, plans, nbytes = fields[0].tile, [], 0
        for f in fields:
            if f.tile is not tile and f.tile != tile:
                raise CommunicationError(
                    "all fields in one exchange must share a tile")
            if depth > f.halo:
                raise CommunicationError(
                    f"exchange depth {depth} exceeds field halo {f.halo}")
            plans.append(f.halo_plan(depth))
            nbytes += plans[-1].nbytes
        pack, unpack = self.kernels.pack_halo, self.kernels.unpack_halo
        send, recv = self.comm.send, self.comm.recv
        with self.tracer.span("halo_exchange", depth):
            for phase in range(len(plans[0].phases)):
                for f, plan in zip(fields, plans):
                    a = f.data
                    sends, recvs = plan.phases[phase]
                    for slab, peer, tag in sends:
                        send(pack(a, *slab), dest=peer, tag=tag)
                    for slab, peer, tag in recvs:
                        unpack(a, *slab, recv(source=peer, tag=tag))
        if self.events is not None:
            self.events.record("halo_exchange", depth, bytes=nbytes)


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
