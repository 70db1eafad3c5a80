"""The matrix-free 5-point (2-D) and 7-point (3-D) diffusion operator
(paper Listing 1).

In 2-D ``w = A p`` with

    w[k,j] = (1 + Ky[k+1,j] + Ky[k,j] + Kx[k,j+1] + Kx[k,j]) * p[k,j]
           - Ky[k+1,j]*p[k+1,j] - Ky[k,j]*p[k-1,j]
           - Kx[k,j+1]*p[k,j+1] - Kx[k,j]*p[k,j-1]

where ``Kx``/``Ky`` are the face conduction coefficients scaled by
``dt/dx^2``/``dt/dy^2``; in 3-D ``Kz`` adds the same two terms along z.
``A = I + D`` with ``D`` symmetric weakly
diagonally dominant, so ``A`` is SPD with ``lambda_min = 1`` exactly (the
constant vector, from the insulated boundaries).

The operator is *matrix free*: it reads the coefficient arrays in mesh
layout and no sparse matrix is ever assembled (except by
:meth:`StencilOperator.assemble_sparse`, which exists for testing against
``scipy``).  Every method also supports the **extended bounds** needed by
the matrix powers kernel: computing on the interior grown by ``ext`` cells
toward neighbouring ranks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace

import numpy as np
import scipy.sparse as sp

from repro.comm.base import Communicator
from repro.kernels import (DEFAULT_BACKEND, KernelBackend, get_backend,
                           stencil_diagonal)
from repro.mesh.decomposition import Tile
from repro.mesh.field import Field
from repro.mesh.halo import HaloExchanger
from repro.utils.errors import ConfigurationError
from repro.utils.events import EventLog


def embed_global(local: np.ndarray, global_array: np.ndarray,
                 *offsets: int) -> None:
    """Copy ``global_array`` into ``local`` with ``local[r,c] =
    global[r+y_off, c+x_off]`` wherever that index is in range
    (``offsets`` is one per axis, slowest first: ``y_off, x_off`` or
    ``z_off, y_off, x_off``).

    Out-of-range cells are left untouched (callers pre-fill with zeros).
    Used to build padded local coefficient/field arrays from global ones in
    tests and reference constructions.
    """
    lo = [max(0, -off) for off in offsets]
    hi = [min(n, g - off)
          for n, g, off in zip(local.shape, global_array.shape, offsets)]
    if all(h > l for l, h in zip(lo, hi)):
        local[tuple(slice(l, h) for l, h in zip(lo, hi))] = global_array[
            tuple(slice(l + off, h + off)
                  for l, h, off in zip(lo, hi, offsets))]


@dataclass
class StencilOperator:
    """Rank-local matrix-free operator plus its communication context.

    Parameters
    ----------
    kx, ky, kz:
        Padded face-coefficient fields (see
        :func:`repro.physics.state.build_coefficient_fields`); ``kx.data[k,j]``
        couples padded cells ``(k, j-1)`` and ``(k, j)``, ``ky`` and ``kz``
        likewise along y and z.  ``kz`` is given for 3-D tiles only.
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
    kz: Field = None
    #: Lazily allocated workspace for the fused residual chain.
    _scratch: Field = dc_field(default=None, init=False, repr=False,
                               compare=False)

    def __post_init__(self):
        faces = self.faces
        if len(faces) != self.kx.tile.ndim or any(
                k.tile != self.kx.tile or k.halo != self.kx.halo
                for k in faces):
            raise ConfigurationError(
                "kx/ky(/kz) must be one field per axis of one tile, of one "
                "halo depth")
        # The coefficients of a live operator are immutable: the kernel
        # backend caches the diagonal it derives from them.
        for k in faces:
            k.data.flags.writeable = False
        # What every stencil call passes: the coefficient arrays, and per
        # extension the region's loop bounds and cell count.
        self._coeffs = tuple(k.data for k in faces)
        self._bounds = {}
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
        *faces_comm,
        events: EventLog | None = None,
        tracer=None,
        dtype: np.dtype = np.float64,
    ) -> "StencilOperator":
        """Build the rank-local operator from global face arrays, called
        as ``from_global_faces(tile, halo, kx_global, ky_global[,
        kz_global], comm)``.

        In 2-D ``kx_global`` has shape ``(ny, nx+1)`` and ``ky_global`` has
        shape ``(ny+1, nx)`` (see
        :func:`repro.physics.conduction.face_coefficients`, which gives
        the three 3-D arrays from a 3-D conductivity).
        Faces outside the global domain are zero, so no halo exchange of the
        coefficients is needed.  ``dtype`` sets the working precision of the
        coefficient fields (and hence of :meth:`new_field` workspaces).
        """
        *faces_global, comm = faces_comm
        if len(faces_global) != tile.ndim:
            raise ConfigurationError(
                f"a {tile.ndim}-D tile takes {tile.ndim} global face "
                f"arrays, got {len(faces_global)}")
        faces = {}
        for name, face in zip(("kx", "ky", "kz"), faces_global):
            faces[name] = Field(tile, halo, dtype=dtype)
            embed_global(faces[name].data, face,
                         *(lo - halo for lo in tile.lo))
        return cls(**faces, comm=comm,
                   events=events if events is not None else EventLog(),
                   tracer=tracer)

    # -- geometry helpers --------------------------------------------------------

    @property
    def faces(self) -> tuple[Field, ...]:
        """The coefficient fields ``(kx, ky[, kz])``."""
        return (self.kx, self.ky) + (() if self.kz is None else (self.kz,))

    @property
    def ndim(self) -> int:
        """Spatial dimensionality, 2 or 3."""
        return self.kx.tile.ndim

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

    def _stencil_bounds(self, ext: int) -> tuple:
        """``(bounds, cells)`` of the interior grown by ``ext``: the loop
        bounds a kernel takes, ``lo, hi`` per axis slowest first."""
        try:
            return self._bounds[ext]
        except KeyError:
            pass
        if not 0 <= ext <= self.halo - 1:
            raise ConfigurationError(
                f"stencil extension {ext} must be in [0, halo-1={self.halo - 1}]")
        region = self.kx.region(ext)
        self._bounds[ext] = (
            tuple(b for s in region for b in (s.start, s.stop)),
            math.prod(s.stop - s.start for s in region))
        return self._bounds[ext]

    def apply_noexchange(self, p: Field, out: Field, ext: int = 0) -> None:
        """``out = A p`` on the interior grown by ``ext`` toward neighbours.

        Requires ``p`` valid on extension ``ext + 1`` (i.e. a fresh halo of
        at least that depth); no communication is performed.
        """
        bounds, cells = self._stencil_bounds(ext)
        with self.tracer.span("stencil", ext):
            self.kernels.stencil_apply(*self._coeffs, p.data, out.data,
                                       *bounds)
        self.events.record("matvec", None, cells=cells)

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
        bounds, cells = self._stencil_bounds(0)
        with self.tracer.span("stencil", 0):
            local = self.kernels.apply_dot(*self._coeffs, p.data, out.data,
                                           *bounds)
        self.events.record("matvec", None, cells=cells)
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
        bounds, cells = self._stencil_bounds(0)
        out.interior[...] = b.interior
        with self.tracer.span("stencil", 0):
            local = self.kernels.apply_axpy_dot(
                *self._coeffs, x.data, self._scratch.data, out.data, -1.0,
                *bounds)
        self.events.record("matvec", None, cells=cells)
        return float(self.comm.allreduce(local))

    def with_kernels(self, backend) -> "StencilOperator":
        """This operator routed through kernel backend ``backend``.

        ``backend`` is a registry name — ``self`` is returned when its
        backend already goes by that name — or an instance, which the
        result always routes through (two classes are called ``numpy``).
        A new operator is a shallow copy sharing coefficients,
        communicator, events and tracer, with a fresh exchanger bound to
        the new backend.
        """
        k = backend
        if isinstance(backend, str):
            if backend == self.kernels.name:
                return self
            k = get_backend(backend)
        return replace(self, kernels=k, exchanger=HaloExchanger(
            self.comm, events=self.events, tracer=self.tracer, kernels=k))

    def diagonal(self) -> np.ndarray:
        """The diagonal of ``A`` over the interior, shape ``tile.shape``."""
        return self.diagonal_padded()[self.kx.region(0)].copy()

    def diagonal_padded(self) -> np.ndarray:
        """diag(A) over the full padded array (outer edges padded with 1)."""
        return stencil_diagonal(*self._coeffs)

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
    def assemble_sparse(*faces_global: np.ndarray) -> sp.csr_matrix:
        """Assemble the explicit global sparse matrix of ``(kx_global,
        ky_global[, kz_global])`` (serial, for tests).

        Row-major cell ordering: cell ``(k, j)`` maps to row ``k*nx + j``.
        Faces whose coefficient is zero contribute no entry.
        """
        ndim = len(faces_global)
        shape = tuple(n - (a == ndim - 1)
                      for a, n in enumerate(faces_global[0].shape))
        every = (slice(None),) * ndim

        def along(axis, part):
            return (*every[:axis], part, *every[axis + 1:])

        cell = np.arange(math.prod(shape)).reshape(shape)
        diag = 1.0
        rows, cols, vals = [cell.ravel()], [cell.ravel()], []
        for axis, k in zip(reversed(range(ndim)), faces_global):
            if k.shape != tuple(n + (a == axis) for a, n in enumerate(shape)):
                raise ConfigurationError(
                    f"inconsistent face shapes "
                    f"{' / '.join(str(f.shape) for f in faces_global)}")
            diag = (diag + k[along(axis, slice(None, -1))]
                    + k[along(axis, slice(1, None))])
            inner = k[along(axis, slice(1, -1))]
            coupled = inner != 0.0
            low = cell[along(axis, slice(None, -1))][coupled]
            high = cell[along(axis, slice(1, None))][coupled]
            rows += [high, low]
            cols += [low, high]
            vals += [-inner[coupled]] * 2
        vals.insert(0, diag.ravel())
        n = cell.size
        return sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows),
                                    np.concatenate(cols))), shape=(n, n))


#: The operator under its 2-D name.
StencilOperator2D = StencilOperator
