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
``scipy`` and is the one place this module imports it).  Every method
also supports the **extended bounds** needed by the matrix powers kernel:
computing on the interior grown by ``ext`` cells toward neighbouring
ranks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
from functools import partial

import numpy as np

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
        The :class:`~repro.kernels.KernelBackend` the hot paths route
        through; shared with the exchanger.  Defaults to the ``numpy``
        baseline.
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
        # extension the region's loop bounds and cell count (the
        # interior's, which every matvec records, worked out here).
        self._coeffs = tuple(k.data for k in faces)
        self._bounds = {}
        self._interior = self._stencil_bounds(0)
        if self.tracer is None:
            # Deferred import: keeps the solver core importable without
            # loading the observability package at module import time.
            from repro.observe.trace import NULL_TRACER
            self.tracer = NULL_TRACER
        if self.kernels is None:
            self.kernels = get_backend(DEFAULT_BACKEND)
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

    def bind_chebyshev(self, d: Field, w: Field, r: Field, z: Field,
                       inv_diag: np.ndarray | None,
                       depth: int) -> "ChebyshevStep":
        """One Chebyshev iteration's inner step on ``d, w, r, z`` at
        extensions ``0 .. depth-1``, bound once through
        :meth:`~repro.kernels.base.KernelBackend.bind_chebyshev`."""
        regions = [self._stencil_bounds(ext) for ext in range(depth)]
        return ChebyshevStep(self, d, w, regions, self.kernels.bind_chebyshev(
            self._coeffs, d.data, w.data, r.data, z.data, inv_diag,
            [bounds for bounds, _ in regions], self._interior[0]))

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
        return self._stencil_dot(p, partial(
            self.kernels.apply_dot, *self._coeffs, p.data, out.data,
            *self._interior[0]))

    def _stencil_dot(self, ghosts: Field, local, *args) -> float:
        """``ghosts``' depth-1 exchange, ``local(*args)`` — the stencil
        returning its local ``<p, A p>`` — in the ``stencil`` span, the
        ``matvec`` event, one allreduce."""
        self.exchanger.exchange(ghosts, depth=1)
        with self.tracer.span("stencil", 0):
            local = local(*args)
        self.events.record("matvec", None, cells=self._interior[1])
        return float(self.comm.allreduce(local))

    def bind_cg(self, state) -> "CGStep":
        """CG's iteration on ``state``'s fields ``x, r, p, w, z``, bound once
        through :meth:`~repro.kernels.base.KernelBackend.bind_cg` on the
        interior and its ring ``region(1)``."""
        return CGStep(self, state, self.kernels.bind_cg(
            self._coeffs, *(f.data for f in (state.x, state.r, state.p,
                                              state.w, state.z)),
            self._interior[0],
            tuple(b for s in self.kx.region(1) for b in (s.start, s.stop))))

    def residual_dot(self, b: Field, x: Field, out: Field) -> float:
        """``out = b - A x``; returns the global ``<out, out>``.

        The fused residual + convergence-norm chain (Jacobi's per-sweep
        tail): one depth-1 exchange and one allreduce, identical to the
        ``residual`` + ``dot`` pair it replaces.
        """
        self.exchanger.exchange(x, depth=1)
        if self._scratch is None:
            self._scratch = self.new_field()
        bounds, cells = self._interior
        out.interior[...] = b.interior
        with self.tracer.span("stencil", 0):
            local = self.kernels.apply_axpy_dot(
                *self._coeffs, x.data, self._scratch.data, out.data, -1.0,
                *bounds)
        self.events.record("matvec", None, cells=cells)
        return float(self.comm.allreduce(local))

    def with_kernels(self, backend: KernelBackend) -> "StencilOperator":
        """This operator routed through the backend instance ``backend``:
        a shallow copy sharing coefficients, communicator, events and
        tracer, with a fresh exchanger bound to ``backend``.
        """
        return replace(self, kernels=backend, exchanger=HaloExchanger(
            self.comm, events=self.events, tracer=self.tracer,
            kernels=backend))

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
        return self.reduce([a.local_dot(b, self.kernels) for a, b in pairs])

    def reduce(self, local: list[float]) -> tuple[float, ...]:
        """Rank-local partial sums (Python floats), summed over the ranks
        in one allreduce: one travels as itself, several as one array —
        the same rank-order fold of the same doubles either way."""
        # An if/else, not two returns: the contract checker charges a
        # branch's maximum, but a sequence's sum.
        if len(local) == 1:
            out = (float(self.comm.allreduce(local[0])),)
        else:
            out = tuple(self.comm.allreduce(np.array(local)).tolist())
        return out

    def norm(self, a: Field) -> float:
        return float(np.sqrt(self.dot(a, a)))

    def residual(self, b: Field, x: Field, out: Field) -> None:
        """``out = b - A x`` on the interior (one depth-1 exchange)."""
        self.apply(x, out)
        np.subtract(b.interior, out.interior, out=out.interior)

    # -- reference assembly (tests/ground truth) --------------------------------------

    @staticmethod
    def assemble_sparse(*faces_global: np.ndarray
                        ) -> "scipy.sparse.csr_matrix":
        """Assemble the explicit global sparse matrix of ``(kx_global,
        ky_global[, kz_global])`` (serial, for tests).

        Row-major cell ordering: cell ``(k, j)`` maps to row ``k*nx + j``.
        Faces whose coefficient is zero contribute no entry.
        """
        import scipy.sparse as sp
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


class CGStep:
    """One CG iteration (:meth:`StencilOperator.bind_cg`).  Where the
    backend bound its bodies, an iteration is two passes: ``update``
    runs ``r -= alpha w`` and leaves ``x += alpha p`` pending,
    ``direction`` only records ``beta``, and the next ``matvec_dot``
    applies both on its way through the stencil (``state.settle()``
    applies them where something reads ``x`` or ``p`` first).  Unbound,
    or handed a scalar the bodies cannot take, each method makes the
    separate calls it replaces, the reference.  Both give the same bits,
    allreduces, spans and events, and one depth-1 exchange per iteration
    with the same bytes."""

    def __init__(self, op: StencilOperator, state, bound) -> None:
        self.op, self.s, self.bound = op, state, bound
        state.bound = bound   # what settles the pending updates

    def matvec_dot(self) -> float:
        """``w = A p`` — after the pending ``x`` update and direction,
        if any —; returns the global ``<p, w>``."""
        s, op = self.s, self.op
        # An if/else, not two returns: the contract checker (repro.analysis)
        # charges a branch's maximum, but a sequence's sum.
        if s.pending_beta is not None:
            # p's ghost ring is the neighbours' own p, computed here from
            # their z (exchanged instead of p) and beta, the same on every
            # rank: the matrix powers kernel at depth 1.
            pw = op._stencil_dot(s.z, self.bound.cg_pass, s.pending_alpha,
                                 s.pending_beta)
            s.pending_alpha = s.pending_beta = None
        else:
            s.settle()
            if self.bound is None:
                pw = op.apply_dot(s.p, s.w)
            else:
                pw = op._stencil_dot(s.p, self.bound.apply_dot)
        return pw

    def update(self, alpha: float) -> float | None:
        """``x += alpha p`` (pending, where bound) and ``r -= alpha w``;
        returns the local ``<r, r>`` where the bound body took it on the
        way (``z`` is ``r``), else None."""
        s, b = self.s, self.bound
        if b is not None and b.fits(alpha):
            rr = b.cg_residual(alpha)
            s.pending_alpha = alpha
        else:
            rr = None
            s.x.axpy(alpha, s.p, self.op.kernels)
            s.r.axpy(-alpha, s.w, self.op.kernels)
        return rr if s.z is s.r else None

    def direction(self, beta: float) -> None:
        """``p = beta p + z`` (pending, where bound)."""
        s = self.s
        if s.pending_alpha is not None and self.bound.fits(beta):
            s.pending_beta = beta
        else:
            s.settle()
            s.p.aypx(beta, s.z, self.op.kernels)


class ChebyshevStep:
    """One Chebyshev inner step (:meth:`StencilOperator.bind_chebyshev`):
    the body the backend bound, or — unbound, or handed a scalar it cannot
    take (``fits``) — the stencil alone, and the caller makes the separate
    passes, the reference.  Both give the same bits, spans and events."""

    def __init__(self, op: StencilOperator, d: Field, w: Field,
                 regions: list, bound):
        self.op, self.d, self.w, self.bound = op, d, w, bound
        self.regions = regions   # (bounds, cells) by extension

    def step(self, ext: int, scale: float, beta: float) -> bool:
        """``w = A d`` like :meth:`StencilOperator.apply_noexchange` — and,
        where the bound body ran, the rest of the step on the same region;
        returns whether it did the rest."""
        op, b = self.op, self.bound
        bounds, cells = self.regions[ext]
        with op.tracer.span("stencil", ext):
            done = b is not None and b.fits(scale, beta)
            if done:
                b.steps[ext](scale, beta)
            else:
                op.kernels.stencil_apply(*op._coeffs, self.d.data,
                                         self.w.data, *bounds)
        op.events.record("matvec", None, cells=cells)
        return done


#: The operator under its 2-D name.
StencilOperator2D = StencilOperator
