"""Distributed matrix-free 7-point operator.

The 3D counterpart of :class:`repro.solvers.operator.StencilOperator2D`,
with the same method surface — which is the whole point: the CG, Chebyshev
and CPPCG implementations in this package are dimension-agnostic (they
only touch ``new_field``/``apply``/``apply_noexchange``/``dots``/
``region``), so every 2D solver — including the matrix powers kernel —
runs unchanged on decomposed 3D problems through this class.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from repro.comm.base import Communicator
from repro.mesh.decomposition3d import Tile3D
from repro.mesh.field3d import Field3D
from repro.mesh.halo3d import HaloExchanger3D
from repro.utils.errors import ConfigurationError
from repro.utils.events import EventLog


def embed_global_3d(local: np.ndarray, global_array: np.ndarray,
                    z_off: int, y_off: int, x_off: int) -> None:
    """3D window copy: ``local[p,r,c] = global[p+z_off, r+y_off, c+x_off]``
    wherever in range; out-of-range cells untouched."""
    gd, gh, gw = global_array.shape
    ld, lh, lw = local.shape
    p0 = max(0, -z_off)
    r0 = max(0, -y_off)
    c0 = max(0, -x_off)
    p1 = min(ld, gd - z_off)
    r1 = min(lh, gh - y_off)
    c1 = min(lw, gw - x_off)
    if p1 > p0 and r1 > r0 and c1 > c0:
        local[p0:p1, r0:r1, c0:c1] = global_array[
            p0 + z_off:p1 + z_off, r0 + y_off:r1 + y_off,
            c0 + x_off:c1 + x_off]


@dataclass
class DistributedOperator3D:
    """Rank-local 7-point operator with its communication context.

    ``kx.data[i, k, j]`` couples padded cells ``(i, k, j-1)``/``(i, k, j)``;
    ``ky`` and ``kz`` likewise along y and z.
    """

    kx: Field3D
    ky: Field3D
    kz: Field3D
    comm: Communicator
    exchanger: HaloExchanger3D = None
    events: EventLog = dc_field(default_factory=EventLog)
    #: Kernel backend for the BLAS-1 tail (dot/axpy).  The 7-point stencil
    #: itself stays whole-array NumPy — :mod:`repro.kernels` backends are
    #: 2D-only for the stencil chains (documented scope, docs/kernels.md).
    kernels: object = dc_field(default=None)

    ndim = 3

    def __post_init__(self):
        tiles = {self.kx.tile, self.ky.tile, self.kz.tile}
        halos = {self.kx.halo, self.ky.halo, self.kz.halo}
        if len(tiles) != 1 or len(halos) != 1:
            raise ConfigurationError(
                "kx/ky/kz fields must share tile and halo")
        if self.kernels is None:
            from repro.kernels import DEFAULT_BACKEND, get_backend
            self.kernels = get_backend(DEFAULT_BACKEND)
        elif isinstance(self.kernels, str):
            from repro.kernels import get_backend
            self.kernels = get_backend(self.kernels)
        if self.exchanger is None:
            self.exchanger = HaloExchanger3D(self.comm, events=self.events)
        elif self.exchanger.events is None:
            self.exchanger.events = self.events

    @classmethod
    def from_global_faces(
        cls,
        tile: Tile3D,
        halo: int,
        kx_global: np.ndarray,
        ky_global: np.ndarray,
        kz_global: np.ndarray,
        comm: Communicator,
        events: EventLog | None = None,
    ) -> "DistributedOperator3D":
        """Build the rank-local operator from global face arrays
        (shapes per :func:`repro.physics.conduction.face_coefficients_3d`)."""
        kx = Field3D(tile, halo)
        ky = Field3D(tile, halo)
        kz = Field3D(tile, halo)
        offs = (tile.z0 - halo, tile.y0 - halo, tile.x0 - halo)
        embed_global_3d(kx.data, kx_global, *offs)
        embed_global_3d(ky.data, ky_global, *offs)
        embed_global_3d(kz.data, kz_global, *offs)
        return cls(kx=kx, ky=ky, kz=kz, comm=comm,
                   events=events if events is not None else EventLog())

    # -- geometry --------------------------------------------------------------

    @property
    def tile(self) -> Tile3D:
        return self.kx.tile

    @property
    def halo(self) -> int:
        return self.kx.halo

    def new_field(self) -> Field3D:
        return Field3D(self.tile, self.halo)

    # -- the stencil -------------------------------------------------------------

    def apply_noexchange(self, p: Field3D, out: Field3D, ext: int = 0) -> None:
        """``out = A p`` on the interior grown by ``ext`` (no comm).

        Requires ``p`` valid on extension ``ext + 1``.
        """
        if not 0 <= ext <= self.halo - 1:
            raise ConfigurationError(
                f"stencil extension {ext} must be in [0, halo-1="
                f"{self.halo - 1}]")
        zz, yy, xx = self.kx.region(ext)
        z0, z1, y0, y1, x0, x1 = zz.start, zz.stop, yy.start, yy.stop, \
            xx.start, xx.stop
        pd = p.data
        kxd, kyd, kzd = self.kx.data, self.ky.data, self.kz.data
        c = (slice(z0, z1), slice(y0, y1), slice(x0, x1))
        kx_lo = kxd[c]
        kx_hi = kxd[z0:z1, y0:y1, x0 + 1:x1 + 1]
        ky_lo = kyd[c]
        ky_hi = kyd[z0:z1, y0 + 1:y1 + 1, x0:x1]
        kz_lo = kzd[c]
        kz_hi = kzd[z0 + 1:z1 + 1, y0:y1, x0:x1]
        out.data[c] = (
            (1.0 + kz_hi + kz_lo + ky_hi + ky_lo + kx_hi + kx_lo) * pd[c]
            - kz_hi * pd[z0 + 1:z1 + 1, y0:y1, x0:x1]
            - kz_lo * pd[z0 - 1:z1 - 1, y0:y1, x0:x1]
            - ky_hi * pd[z0:z1, y0 + 1:y1 + 1, x0:x1]
            - ky_lo * pd[z0:z1, y0 - 1:y1 - 1, x0:x1]
            - kx_hi * pd[z0:z1, y0:y1, x0 + 1:x1 + 1]
            - kx_lo * pd[z0:z1, y0:y1, x0 - 1:x1 - 1]
        )
        self.events.record("matvec", None,
                           cells=(z1 - z0) * (y1 - y0) * (x1 - x0))

    def apply(self, p: Field3D, out: Field3D) -> None:
        self.exchanger.exchange(p, depth=1)
        self.apply_noexchange(p, out, ext=0)

    def apply_dot(self, p: Field3D, out: Field3D) -> float:
        """``out = A p``; returns the global ``<p, A p>``.

        Unfused in 3D (apply then dot) but the same one-exchange,
        one-allreduce budget as the 2D fused chain.
        """
        self.apply(p, out)
        return float(self.comm.allreduce(p.local_dot(out, self.kernels)))

    def residual_dot(self, b: Field3D, x: Field3D, out: Field3D) -> float:
        """``out = b - A x``; returns the global ``<out, out>``."""
        self.residual(b, x, out)
        return float(self.comm.allreduce(out.local_dot(out, self.kernels)))

    def with_kernels(self, backend) -> "DistributedOperator3D":
        """This operator with backend ``backend`` for its BLAS-1 tail."""
        from repro.kernels import get_backend
        k = get_backend(backend) if isinstance(backend, str) else backend
        if k.name == self.kernels.name:
            return self
        return DistributedOperator3D(kx=self.kx, ky=self.ky, kz=self.kz,
                                     comm=self.comm,
                                     exchanger=self.exchanger,
                                     events=self.events, kernels=k)

    def diagonal(self) -> np.ndarray:
        zz, yy, xx = self.kx.region(0)
        z0, z1, y0, y1, x0, x1 = zz.start, zz.stop, yy.start, yy.stop, \
            xx.start, xx.stop
        kxd, kyd, kzd = self.kx.data, self.ky.data, self.kz.data
        c = (slice(z0, z1), slice(y0, y1), slice(x0, x1))
        return (1.0
                + kzd[z0 + 1:z1 + 1, y0:y1, x0:x1] + kzd[c]
                + kyd[z0:z1, y0 + 1:y1 + 1, x0:x1] + kyd[c]
                + kxd[z0:z1, y0:y1, x0 + 1:x1 + 1] + kxd[c])

    def diagonal_padded(self) -> np.ndarray:
        kxd, kyd, kzd = self.kx.data, self.ky.data, self.kz.data
        d = np.ones_like(kxd)
        d[:-1, :-1, :-1] = (1.0
                            + kzd[1:, :-1, :-1] + kzd[:-1, :-1, :-1]
                            + kyd[:-1, 1:, :-1] + kyd[:-1, :-1, :-1]
                            + kxd[:-1, :-1, 1:] + kxd[:-1, :-1, :-1])
        return d

    # -- global reductions ----------------------------------------------------------

    def dot(self, a: Field3D, b: Field3D) -> float:
        return float(self.comm.allreduce(a.local_dot(b, self.kernels)))

    def dots(self, pairs) -> tuple[float, ...]:
        local = np.array([a.local_dot(b, self.kernels) for a, b in pairs])
        out = self.comm.allreduce(local)
        return tuple(float(v) for v in out)

    def norm(self, a: Field3D) -> float:
        return float(np.sqrt(self.dot(a, a)))

    def residual(self, b: Field3D, x: Field3D, out: Field3D) -> None:
        self.apply(x, out)
        np.subtract(b.interior, out.interior, out=out.interior)
