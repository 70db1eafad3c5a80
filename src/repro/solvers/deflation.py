"""Deflated CG (Frank & Vuik) — the paper's route beyond CPPCG.

§VII: "Using deflation techniques [27] we will be able to represent these
low energy modes in a series of nested lower dimensional sub-spaces."
Reference [27] is Frank & Vuik, *On the construction of deflation-based
preconditioners* — subdomain-constant deflation vectors, implemented here.

The deflation space ``W`` holds one indicator vector per rectangular
subdomain block (a ``qx x qy`` partition of the global mesh, independent of
the rank decomposition).  With ``E = W^T A W`` (a tiny dense SPD matrix,
factorised once and replicated) and the projector ``P = I − A W E^{-1} W^T``,
deflated CG runs ordinary (P)CG on ``P A`` and finishes with the correction
``x = W E^{-1} W^T b + P^T x̂``.  The projector removes the lowest "energy"
modes — exactly the near-constant-per-subdomain modes that dominate the
diffusion operator's small eigenvalues — so the effective condition number
drops to ``lambda_max / lambda_{k+1}``.

Communication: each projector application adds **one** small allreduce (the
``k`` local subdomain sums) — the coarse solve itself is replicated local
work, so deflation composes with the communication-avoiding design rather
than fighting it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from repro.mesh.field import Field
from repro.solvers.cg import cg_solve
from repro.solvers.defences import Defences
from repro.solvers.operator import CGStep, StencilOperator, StencilOperator2D
from repro.solvers.preconditioners import (
    Preconditioner,
    make_local_preconditioner,
)
from repro.solvers.result import SolveResult
from repro.utils.errors import ConfigurationError
from repro.utils.validation import check_positive

#: Machine-checked communication budget (see ``repro.analysis``).  Deflated
#: CG *is* ``cg_solve`` running on the projected operator, so the static
#: per-iteration budget is enforced in :mod:`repro.solvers.cg`
#: (``delegates_to``); this contract declares what the dynamic verifier
#: measures: CG's two fused allreduces plus a third, the one k-sized
#: allreduce of the projector application (``DeflationSpace.wt``) inside
#: ``ProjectedOperator.apply_dot`` — the coarse solve itself is replicated
#: local work.
COMM_CONTRACT = {
    "solver": "dcg",
    "halo_exchanges_per_iter": 1,
    "allreduces_per_iter": 3,
    "halo_depth": 1,
    "hot_function": None,
    "delegates_to": "repro.solvers.cg",
}


def _cholesky(E: np.ndarray) -> np.ndarray:
    """Lower ``L`` with ``L L^T = E``, eliminating column by column."""
    L = np.tril(E)
    for j in range(len(L)):
        if not L[j, j] > 0:
            raise ConfigurationError(
                f"deflation coarse matrix not SPD: pivot {j} is {L[j, j]}")
        L[j, j] = math.sqrt(L[j, j])
        col = L[j + 1:, j]
        col /= L[j, j]
        L[j + 1:, j + 1:] -= np.tril(np.multiply.outer(col, col))
    return L


class DeflationSpace:
    """Subdomain-constant deflation vectors and the coarse operator.

    Parameters
    ----------
    op:
        The (rank-local) stencil operator.
    grid_shape:
        Global mesh shape ``(ny, nx)``.
    blocks:
        ``(qx, qy)`` subdomain partition; ``k = qx*qy`` deflation vectors.
    """

    def __init__(self, op: StencilOperator2D,
                 grid_shape: tuple[int, int],
                 blocks: tuple[int, int] = (4, 4)):
        if op.ndim != 2:
            raise ConfigurationError(
                "subdomain deflation is defined for the 2D operator only")
        qx, qy = blocks
        check_positive("qx", qx)
        check_positive("qy", qy)
        ny_g, nx_g = grid_shape
        if qx > nx_g or qy > ny_g:
            raise ConfigurationError(
                f"deflation blocks {blocks} exceed mesh {grid_shape}")
        self.op = op
        self.k = qx * qy
        tile = op.tile

        # Global block id of every local interior cell.
        ys = np.arange(tile.y0, tile.y1)
        xs = np.arange(tile.x0, tile.x1)
        by = np.minimum(ys * qy // ny_g, qy - 1)
        bx = np.minimum(xs * qx // nx_g, qx - 1)
        self.block_id = (by[:, None] * qx + bx[None, :])  # (ny_loc, nx_loc)

        # AW columns restricted to this rank: apply A to each indicator.
        # Only blocks touching this tile (or its neighbours) are nonzero,
        # but k is small so dense local storage is fine.
        self._aw = np.zeros((self.k, tile.ny, tile.nx))
        ind = op.new_field()
        out = op.new_field()
        for j in range(self.k):
            ind.data.fill(0.0)
            ind.interior[...] = (self.block_id == j)
            op.apply(ind, out)  # halo exchange inside handles spill
            self._aw[j] = out.interior

        # E = W^T A W: local partials, summed once globally.
        local_E = np.zeros((self.k, self.k))
        for i in range(self.k):
            mask = self.block_id == i
            if mask.any():
                local_E[i] = self._aw[:, mask].sum(axis=1)
        E = op.comm.allreduce(local_E)
        E = 0.5 * (E + E.T)  # symmetrise round-off
        self._L = _cholesky(E)
        # The box where each A W column is nonzero (empty off this tile).
        self._box = [tuple(slice(i.min(initial=aw.size), i.max(initial=-1) + 1)
                           for i in np.nonzero(aw)) for aw in self._aw]

    # -- coarse-space algebra ------------------------------------------------
    # No BLAS or LAPACK, whose summation orders depend on the CPU: every sum
    # below is elementwise in a fixed order.

    def wt(self, v: Field) -> np.ndarray:
        """``W^T v``: per-subdomain sums (one k-sized allreduce)."""
        local = np.bincount(self.block_id.ravel(),
                            weights=v.interior.ravel(),
                            minlength=self.k)
        return np.asarray(self.op.comm.allreduce(local))

    def awt(self, v: Field) -> np.ndarray:
        """``(A W)^T v`` (one k-sized allreduce), each local sum the
        backend's reference ``dot``."""
        local = np.array([self.op.kernels.dot(aw, v.interior)
                          for aw in self._aw])
        return np.asarray(self.op.comm.allreduce(local))

    def coarse_solve(self, rhs: np.ndarray) -> np.ndarray:
        """``E^{-1} rhs`` (replicated tiny dense solve): ``L y = rhs``, then
        ``L^T x = y``, column by column.  A NaN from a corrupted ``wt``
        reduction flows through into ``<p, PAp>``, where the solve's
        defences judge it like any other poisoned scalar."""
        L = self._L
        x = np.array(rhs, dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(self.k):
                x[j] /= L[j, j]
                x[j + 1:] -= L[j + 1:, j] * x[j]
            for j in reversed(range(self.k)):
                x[j] /= L[j, j]
                x[:j] -= L[j, :j] * x[j]
        return x

    def project(self, v: Field) -> None:
        """In place ``v <- P v = v − A W E^{-1} W^T v``, one column of
        ``A W`` after another."""
        lam = self.coarse_solve(self.wt(v))
        with np.errstate(over="ignore", invalid="ignore"):
            for coef, aw, box in zip(lam, self._aw, self._box):
                v.interior[box] -= coef * aw[box]

    def project_transpose(self, v: Field) -> None:
        """In place ``v <- P^T v = v − W E^{-1} (A W)^T v``."""
        lam = self.coarse_solve(self.awt(v))
        v.interior -= lam[self.block_id]

    def coarse_correction(self, b: Field, out: Field) -> None:
        """``out <- W E^{-1} W^T b`` (the ``Q b`` term)."""
        lam = self.coarse_solve(self.wt(b))
        out.interior[...] = lam[self.block_id]


@dataclass
class ProjectedOperator(StencilOperator):
    """``P A``: the caller's operator with the deflation projector applied
    to everything CG reads as "``A`` times a vector"."""

    space: DeflationSpace = None

    def apply_dot(self, p: Field, out: Field) -> float:
        """``out = P A p``; returns the global ``<p, P A p>``."""
        self.apply(p, out)
        self.space.project(out)
        return self.dots([(p, out)])[0]

    def bind_cg(self, state) -> CGStep:
        """Unbound: CG's matvec is this ``apply_dot``, not the stencil's."""
        return CGStep(self, state, None)

    def residual(self, b: Field, x: Field, out: Field) -> None:
        """``out = P (b - A x)``."""
        super().residual(b, x, out)
        self.space.project(out)


def deflated_cg_solve(
    op: StencilOperator2D,
    b: Field,
    x0: Field | None = None,
    *,
    grid_shape: tuple[int, int] | None = None,
    blocks: tuple[int, int] = (4, 4),
    eps: float = 1e-10,
    max_iters: int = 10_000,
    preconditioner: str | Preconditioner = "none",
    defences: Defences | None = None,
) -> SolveResult:
    """Solve ``A x = b`` with deflated (preconditioned) CG.

    ``grid_shape`` defaults to the operator tile's global grid extent
    inferred from the decomposition (``px * nx`` style); pass it explicitly
    for non-uniform tilings.  ``defences``
    (:class:`~repro.solvers.defences.Defences`) watches the CG recurrence
    on ``P A``.
    """
    if grid_shape is None:
        t = op.tile
        # Recover the global shape from this tile's slice arithmetic: the
        # decomposition is contiguous, so the grid ends where the last
        # tiles end.  All ranks compute identical values.
        ny_g = int(op.comm.allreduce(t.y1 if t.up is None else 0, op="max"))
        nx_g = int(op.comm.allreduce(t.x1 if t.right is None else 0, op="max"))
        grid_shape = (ny_g, nx_g)
    space = DeflationSpace(op, grid_shape, blocks)
    M = (make_local_preconditioner(op, preconditioner)
         if isinstance(preconditioner, str) else preconditioner)

    # x_hat: ordinary (P)CG on P A x_hat = P b.
    pa = ProjectedOperator(**{f.name: getattr(op, f.name)
                              for f in fields(op) if f.init}, space=space)
    result = cg_solve(pa, b, x0, eps=eps, max_iters=max_iters,
                      preconditioner=M, solver_name="dcg", defences=defences)

    # x_final = Q b + P^T x_hat
    x = result.x
    space.project_transpose(x)
    qb = op.new_field()
    space.coarse_correction(b, qb)
    x.interior += qb.interior
    result.deflation_dim = space.k
    return result
