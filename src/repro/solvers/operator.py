"""The matrix-free 5-point diffusion operator (paper Listing 1).

``w = A p`` with

    w[k,j] = (1 + Ky[k+1,j] + Ky[k,j] + Kx[k,j+1] + Kx[k,j]) * p[k,j]
           - Ky[k+1,j]*p[k+1,j] - Ky[k,j]*p[k-1,j]
           - Kx[k,j+1]*p[k,j+1] - Kx[k,j]*p[k,j-1]

where ``Kx``/``Ky`` are the face conduction coefficients scaled by
``dt/dx^2``/``dt/dy^2``.  ``A = I + D`` with ``D`` symmetric weakly
diagonally dominant, so ``A`` is SPD with ``lambda_min = 1`` exactly (the
constant vector, from the insulated boundaries).

The operator is *matrix free*: it reads the coefficient arrays in mesh
layout and no sparse matrix is ever assembled (except by
:meth:`StencilOperator2D.to_sparse`, which exists for testing against
``scipy``).  Every method also supports the **extended bounds** needed by
the matrix powers kernel: computing on the interior grown by ``ext`` cells
toward neighbouring ranks.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse as sp

from repro.comm.base import Communicator
from repro.kernels import DEFAULT_BACKEND, KernelBackend, get_backend
from repro.mesh.decomposition import Tile
from repro.mesh.field import Field
from repro.mesh.halo import HaloExchanger
from repro.utils.errors import ConfigurationError
from repro.utils.events import EventLog


def embed_global(local: np.ndarray, global_array: np.ndarray,
                 y_off: int, x_off: int) -> None:
    """Copy ``global_array`` into ``local`` with ``local[r,c] =
    global[r+y_off, c+x_off]`` wherever that index is in range.

    Out-of-range cells are left untouched (callers pre-fill with zeros).
    Used to build padded local coefficient/field arrays from global ones in
    tests and reference constructions.
    """
    gh, gw = global_array.shape
    lh, lw = local.shape
    r0 = max(0, -y_off)
    c0 = max(0, -x_off)
    r1 = min(lh, gh - y_off)
    c1 = min(lw, gw - x_off)
    if r1 > r0 and c1 > c0:
        local[r0:r1, c0:c1] = global_array[r0 + y_off:r1 + y_off,
                                           c0 + x_off:c1 + x_off]


@dataclass
class StencilOperator2D:
    """Rank-local matrix-free operator plus its communication context.

    Parameters
    ----------
    kx, ky:
        Padded face-coefficient fields (see
        :func:`repro.physics.state.build_coefficient_fields`); ``kx.data[k,j]``
        couples padded cells ``(k, j-1)`` and ``(k, j)``.
    comm:
        The communicator (dot products reduce over it).
    exchanger:
        Halo exchanger used for the depth-1 exchange inside :meth:`apply`.
    events:
        Event log shared by the operator, exchanger and solvers.
    tracer:
        Optional :class:`~repro.observe.trace.Tracer`, shared with the
        exchanger; the stencil emits ``stencil`` spans, solvers read it
        for ``iteration``/``precond`` spans (null tracer by default).
    kernels:
        The :class:`~repro.kernels.KernelBackend` (or registry name) the
        hot paths route through; shared with the exchanger.  Defaults to
        the ``numpy`` baseline.
    """

    kx: Field
    ky: Field
    comm: Communicator
    exchanger: HaloExchanger = None
    events: EventLog = dc_field(default_factory=EventLog)
    tracer: object = dc_field(default=None)
    kernels: KernelBackend = dc_field(default=None)
    #: Lazily allocated workspace for the fused residual chain.
    _scratch: Field = dc_field(default=None, init=False, repr=False,
                               compare=False)

    def __post_init__(self):
        if self.kx.tile != self.ky.tile or self.kx.halo != self.ky.halo:
            raise ConfigurationError("kx/ky fields must share tile and halo")
        # The coefficients of a live operator are immutable: the kernel
        # backend caches the diagonal it derives from them.
        self.kx.data.flags.writeable = False
        self.ky.data.flags.writeable = False
        if self.tracer is None:
            # Deferred import: keeps the solver core importable without
            # loading the observability package at module import time.
            from repro.observe.trace import NULL_TRACER
            self.tracer = NULL_TRACER
        if self.kernels is None:
            self.kernels = get_backend(DEFAULT_BACKEND)
        elif isinstance(self.kernels, str):
            self.kernels = get_backend(self.kernels)
        if self.exchanger is None:
            self.exchanger = HaloExchanger(self.comm, events=self.events,
                                           tracer=self.tracer,
                                           kernels=self.kernels)
        else:
            if self.exchanger.events is None:
                self.exchanger.events = self.events
            if getattr(self.exchanger, "tracer", None) is None \
                    or not self.exchanger.tracer.enabled:
                self.exchanger.tracer = self.tracer

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_global_faces(
        cls,
        tile: Tile,
        halo: int,
        kx_global: np.ndarray,
        ky_global: np.ndarray,
        comm: Communicator,
        events: EventLog | None = None,
        tracer=None,
        dtype: np.dtype = np.float64,
    ) -> "StencilOperator2D":
        """Build the rank-local operator from global face arrays.

        ``kx_global`` has shape ``(ny, nx+1)`` and ``ky_global`` has shape
        ``(ny+1, nx)`` (see :func:`repro.physics.conduction.face_coefficients`).
        Faces outside the global domain are zero, so no halo exchange of the
        coefficients is needed.  ``dtype`` sets the working precision of the
        coefficient fields (and hence of :meth:`new_field` workspaces).
        """
        kx = Field(tile, halo, dtype=dtype)
        ky = Field(tile, halo, dtype=dtype)
        embed_global(kx.data, kx_global, tile.y0 - halo, tile.x0 - halo)
        embed_global(ky.data, ky_global, tile.y0 - halo, tile.x0 - halo)
        return cls(kx=kx, ky=ky, comm=comm,
                   events=events if events is not None else EventLog(),
                   tracer=tracer)

    # -- geometry helpers --------------------------------------------------------

    @property
    def tile(self) -> Tile:
        return self.kx.tile

    @property
    def halo(self) -> int:
        return self.kx.halo

    @property
    def dtype(self) -> np.dtype:
        """Working precision of the operator's coefficient fields."""
        return self.kx.data.dtype

    def new_field(self) -> Field:
        return Field(self.tile, self.halo, dtype=self.dtype)

    # -- the stencil ---------------------------------------------------------------

    def _region(self, ext: int) -> tuple[slice, slice]:
        if not 0 <= ext <= self.halo - 1:
            raise ConfigurationError(
                f"stencil extension {ext} must be in [0, halo-1={self.halo - 1}]")
        return self.kx.region(ext)

    def apply_noexchange(self, p: Field, out: Field, ext: int = 0) -> None:
        """``out = A p`` on the interior grown by ``ext`` toward neighbours.

        Requires ``p`` valid on extension ``ext + 1`` (i.e. a fresh halo of
        at least that depth); no communication is performed.
        """
        rows, cols = self._region(ext)
        r0, r1, c0, c1 = rows.start, rows.stop, cols.start, cols.stop
        with self.tracer.span("stencil", ext):
            self.kernels.stencil_apply(self.kx.data, self.ky.data,
                                       p.data, out.data, r0, r1, c0, c1)
        self.events.record("matvec", None,
                           cells=(r1 - r0) * (c1 - c0))

    def apply(self, p: Field, out: Field) -> None:
        """``out = A p`` on the interior, exchanging p's depth-1 halo first."""
        self.exchanger.exchange(p, depth=1)
        self.apply_noexchange(p, out, ext=0)

    def apply_dot(self, p: Field, out: Field) -> float:
        """``out = A p``; returns the global ``<p, A p>``.

        Same communication budget as the ``apply`` + ``dots`` pair it
        fuses (one depth-1 exchange, one allreduce), but the backend may
        stream the dot through the stencil pass (see
        :meth:`repro.kernels.base.KernelBackend.apply_dot`).
        """
        self.exchanger.exchange(p, depth=1)
        rows, cols = self._region(0)
        r0, r1, c0, c1 = rows.start, rows.stop, cols.start, cols.stop
        with self.tracer.span("stencil", 0):
            local = self.kernels.apply_dot(self.kx.data, self.ky.data,
                                           p.data, out.data, r0, r1, c0, c1)
        self.events.record("matvec", None,
                           cells=(r1 - r0) * (c1 - c0))
        return float(self.comm.allreduce(local))

    def residual_dot(self, b: Field, x: Field, out: Field) -> float:
        """``out = b - A x``; returns the global ``<out, out>``.

        The fused residual + convergence-norm chain (Jacobi's per-sweep
        tail): one depth-1 exchange and one allreduce, identical to the
        ``residual`` + ``dot`` pair it replaces.
        """
        self.exchanger.exchange(x, depth=1)
        if self._scratch is None:
            self._scratch = self.new_field()
        rows, cols = self._region(0)
        r0, r1, c0, c1 = rows.start, rows.stop, cols.start, cols.stop
        out.interior[...] = b.interior
        with self.tracer.span("stencil", 0):
            local = self.kernels.apply_axpy_dot(
                self.kx.data, self.ky.data, x.data, self._scratch.data,
                out.data, -1.0, r0, r1, c0, c1)
        self.events.record("matvec", None,
                           cells=(r1 - r0) * (c1 - c0))
        return float(self.comm.allreduce(local))

    def with_kernels(self, backend) -> "StencilOperator2D":
        """This operator routed through kernel backend ``backend``.

        Returns ``self`` when the backend already matches; otherwise a
        shallow copy sharing coefficients, communicator, events and
        tracer, with a fresh exchanger bound to the new backend.
        """
        k = get_backend(backend) if isinstance(backend, str) else backend
        if k.name == self.kernels.name:
            return self
        exchanger = HaloExchanger(self.comm, events=self.events,
                                  tracer=self.tracer, kernels=k)
        return StencilOperator2D(kx=self.kx, ky=self.ky, comm=self.comm,
                                 exchanger=exchanger, events=self.events,
                                 tracer=self.tracer, kernels=k)

    #: spatial dimensionality (3D operators report 3)
    ndim = 2

    def diagonal(self) -> np.ndarray:
        """The diagonal of ``A`` over the interior, shape ``(ny, nx)``."""
        rows, cols = self.kx.region(0)
        r0, r1, c0, c1 = rows.start, rows.stop, cols.start, cols.stop
        kxd, kyd = self.kx.data, self.ky.data
        return (1.0
                + kyd[r0 + 1:r1 + 1, c0:c1] + kyd[r0:r1, c0:c1]
                + kxd[r0:r1, c0 + 1:c1 + 1] + kxd[r0:r1, c0:c1])

    def diagonal_padded(self) -> np.ndarray:
        """diag(A) over the full padded array (outer edges padded with 1)."""
        kxd, kyd = self.kx.data, self.ky.data
        d = np.ones_like(kxd)
        d[:-1, :-1] = (1.0 + kyd[1:, :-1] + kyd[:-1, :-1]
                       + kxd[:-1, 1:] + kxd[:-1, :-1])
        return d

    # -- global reductions --------------------------------------------------------

    def dot(self, a: Field, b: Field) -> float:
        """Global dot product over interiors (one allreduce)."""
        return float(self.comm.allreduce(a.local_dot(b, self.kernels)))

    def dots(self, pairs: list[tuple[Field, Field]]) -> tuple[float, ...]:
        """Several global dot products fused into a single allreduce.

        This is the "multiple dot products combined into a single
        communication step" optimisation the paper lists as future work.
        """
        local = np.array([a.local_dot(b, self.kernels) for a, b in pairs])
        out = self.comm.allreduce(local)
        return tuple(float(v) for v in out)

    def norm(self, a: Field) -> float:
        return float(np.sqrt(self.dot(a, a)))

    def residual(self, b: Field, x: Field, out: Field) -> None:
        """``out = b - A x`` on the interior (one depth-1 exchange)."""
        self.apply(x, out)
        np.subtract(b.interior, out.interior, out=out.interior)

    # -- reference assembly (tests/ground truth) --------------------------------------

    @staticmethod
    def assemble_sparse(kx_global: np.ndarray, ky_global: np.ndarray) -> sp.csr_matrix:
        """Assemble the explicit global sparse matrix (serial, for tests).

        Row-major cell ordering: cell ``(k, j)`` maps to row ``k*nx + j``.
        """
        ny, nxp1 = kx_global.shape
        nx = nxp1 - 1
        n = nx * ny

        def idx(k, j):
            return k * nx + j

        rows, cols, vals = [], [], []
        for k in range(ny):
            for j in range(nx):
                d = (1.0 + kx_global[k, j] + kx_global[k, j + 1]
                     + ky_global[k, j] + ky_global[k + 1, j])
                rows.append(idx(k, j)); cols.append(idx(k, j)); vals.append(d)
                if j > 0 and kx_global[k, j] != 0.0:
                    rows.append(idx(k, j)); cols.append(idx(k, j - 1))
                    vals.append(-kx_global[k, j])
                if j < nx - 1 and kx_global[k, j + 1] != 0.0:
                    rows.append(idx(k, j)); cols.append(idx(k, j + 1))
                    vals.append(-kx_global[k, j + 1])
                if k > 0 and ky_global[k, j] != 0.0:
                    rows.append(idx(k, j)); cols.append(idx(k - 1, j))
                    vals.append(-ky_global[k, j])
                if k < ny - 1 and ky_global[k + 1, j] != 0.0:
                    rows.append(idx(k, j)); cols.append(idx(k + 1, j))
                    vals.append(-ky_global[k + 1, j])
        return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
