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

import numpy as np
import scipy.linalg as sla

from repro.mesh.field import Field
from repro.solvers.operator import StencilOperator2D
from repro.solvers.preconditioners import (
    IdentityPreconditioner,
    Preconditioner,
    make_local_preconditioner,
)
from repro.solvers.result import SolveResult
from repro.numerics.breakdown import residual_norm
from repro.utils.errors import ConfigurationError, ConvergenceError
from repro.utils.validation import check_finite_field, check_positive

#: Machine-checked communication budget (see ``repro.analysis``): CG's two
#: fused allreduces plus the one k-sized allreduce hidden in each projector
#: application (``DeflationSpace.wt``) — the coarse solve itself is
#: replicated local work.
COMM_CONTRACT = {
    "solver": "dcg",
    "halo_exchanges_per_iter": 1,
    "allreduces_per_iter": 3,
    "halo_depth": 1,
    "hot_function": "deflated_cg_solve",
}


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
        try:
            self._E_factor = sla.cho_factor(E)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - guard
            raise ConfigurationError(
                f"deflation coarse matrix not SPD: {exc}")

    # -- coarse-space algebra ------------------------------------------------

    def wt(self, v: Field) -> np.ndarray:
        """``W^T v``: per-subdomain sums (one k-sized allreduce)."""
        local = np.bincount(self.block_id.ravel(),
                            weights=v.interior.ravel(),
                            minlength=self.k)
        return np.asarray(self.op.comm.allreduce(local))

    def awt(self, v: Field) -> np.ndarray:
        """``(A W)^T v`` (one k-sized allreduce)."""
        local = self._aw.reshape(self.k, -1) @ v.interior.ravel()
        return np.asarray(self.op.comm.allreduce(local))

    def coarse_solve(self, rhs: np.ndarray) -> np.ndarray:
        """``E^{-1} rhs`` (replicated tiny dense solve)."""
        return sla.cho_solve(self._E_factor, rhs)

    def project(self, v: Field) -> None:
        """In place ``v <- P v = v − A W E^{-1} W^T v``."""
        lam = self.coarse_solve(self.wt(v))
        v.interior -= np.tensordot(lam, self._aw, axes=(0, 0))

    def project_transpose(self, v: Field) -> None:
        """In place ``v <- P^T v = v − W E^{-1} (A W)^T v``."""
        lam = self.coarse_solve(self.awt(v))
        v.interior -= lam[self.block_id]

    def coarse_correction(self, b: Field, out: Field) -> None:
        """``out <- W E^{-1} W^T b`` (the ``Q b`` term)."""
        lam = self.coarse_solve(self.wt(b))
        out.interior[...] = lam[self.block_id]


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
) -> SolveResult:
    """Solve ``A x = b`` with deflated (preconditioned) CG.

    ``grid_shape`` defaults to the operator tile's global grid extent
    inferred from the decomposition (``px * nx`` style); pass it explicitly
    for non-uniform tilings.
    """
    check_positive("eps", eps)
    check_finite_field("b", b)
    check_finite_field("x0", x0)
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
    identity = isinstance(M, IdentityPreconditioner)

    x = x0.copy() if x0 is not None else op.new_field()
    r = op.new_field()
    w = op.new_field()
    op.residual(b, x, out=r)
    space.project(r)  # rhat = P r

    if identity:
        z = r
        (rz,) = op.dots([(r, r)])
        rr = rz
    else:
        z = op.new_field()
        M.apply(r, z)
        rz, rr = op.dots([(r, z), (r, r)])
    p = z.copy()

    r0_norm = residual_norm(rr)
    threshold = eps * r0_norm
    history = [r0_norm]
    converged = r0_norm <= threshold
    iterations = 0
    res_norm = r0_norm

    while not converged and iterations < max_iters:
        op.apply(p, w)
        space.project(w)  # w = P A p
        (pw,) = op.dots([(p, w)])
        if pw <= 0:
            raise ConvergenceError(
                f"deflated CG breakdown: <p, PAp> = {pw:.3e} <= 0")
        alpha = rz / pw
        x.axpy(alpha, p, op.kernels)
        r.axpy(-alpha, w, op.kernels)
        if identity:
            (rz_new,) = op.dots([(r, r)])
            rr = rz_new
        else:
            M.apply(r, z)
            rz_new, rr = op.dots([(r, z), (r, r)])
        iterations += 1
        res_norm = residual_norm(rr)
        history.append(res_norm)
        if res_norm <= threshold:
            converged = True
            break
        p.aypx(rz_new / rz, z)
        rz = rz_new

    # x_final = Q b + P^T x_hat
    space.project_transpose(x)
    qb = op.new_field()
    space.coarse_correction(b, qb)
    x.interior += qb.interior

    result = SolveResult(
        x=x, solver="dcg", converged=converged, iterations=iterations,
        residual_norm=res_norm, initial_residual_norm=r0_norm,
        history=history, events=op.events)
    result.deflation_dim = space.k
    return result
