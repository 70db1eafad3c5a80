"""MG-CG: conjugate gradients preconditioned by one V-cycle.

This is the library's stand-in for the paper's "PETSc CG + BoomerAMG"
baseline.  It runs on the global grid (serial communicator): the baseline's
*convergence behaviour* is measured from real solves here, while its
*distributed cost* at scale is charged by the performance model (per-level
exchanges and coarse-grid serialisation), mirroring how the paper treats it
as an opaque third-party solver.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.field import Field
from repro.multigrid.vcycle import MultigridHierarchy
from repro.numerics.breakdown import residual_norm
from repro.solvers.cg import cg_solve
from repro.solvers.operator import StencilOperator2D
from repro.solvers.preconditioners import Preconditioner
from repro.solvers.result import SolveResult
from repro.utils.errors import ConfigurationError
from repro.utils.validation import check_positive


def _global_faces(op: StencilOperator2D) -> tuple[np.ndarray, np.ndarray]:
    """Extract the global face arrays from a serial operator's padded fields."""
    t, h = op.tile, op.halo
    kx = op.kx.data[h:h + t.ny, h:h + t.nx + 1].copy()
    ky = op.ky.data[h:h + t.ny + 1, h:h + t.nx].copy()
    return kx, ky


class MultigridPreconditioner(Preconditioner):
    """``z = V-cycle(r)``: one symmetric V-cycle per application."""

    name = "multigrid"
    communication_free = False

    def __init__(self, op: StencilOperator2D,
                 pre_sweeps: int = 2, post_sweeps: int = 2,
                 omega: float = 0.8, min_size: int = 4,
                 smoother: str = "jacobi"):
        if op.comm.size != 1:
            raise ConfigurationError(
                "MG-CG runs on the global grid (serial communicator); its "
                "distributed cost is modelled by repro.perfmodel")
        if op.ndim != 2:
            raise ConfigurationError(
                "the multigrid hierarchy is defined for the 2D operator only")
        self.op = op
        kx, ky = _global_faces(op)
        self.hierarchy = MultigridHierarchy.build(
            kx, ky, pre_sweeps=pre_sweeps, post_sweeps=post_sweeps,
            omega=omega, min_size=min_size, smoother=smoother)

    def apply(self, r: Field, z: Field) -> None:
        z.interior = self.hierarchy.cycle(r.interior.copy())


def mgcg_solve(
    op: StencilOperator2D,
    b: Field,
    x0: Field | None = None,
    *,
    eps: float = 1e-10,
    max_iters: int = 1_000,
    pre_sweeps: int = 2,
    post_sweeps: int = 2,
    omega: float = 0.8,
    smoother: str = "jacobi",
    defences=None,
) -> SolveResult:
    """Solve ``A x = b`` with V-cycle-preconditioned CG, watched by
    ``defences`` as any :func:`~repro.solvers.cg.cg_solve` is."""
    M = MultigridPreconditioner(op, pre_sweeps=pre_sweeps,
                                post_sweeps=post_sweeps, omega=omega,
                                smoother=smoother)
    result = cg_solve(op, b, x0, eps=eps, max_iters=max_iters,
                      preconditioner=M, solver_name="mgcg", defences=defences)
    result.n_levels = M.hierarchy.n_levels
    return result


def multigrid_solve(
    op: StencilOperator2D,
    b: Field,
    x0: Field | None = None,
    *,
    eps: float = 1e-10,
    max_iters: int = 200,
) -> SolveResult:
    """Standalone multigrid: V-cycles iterated to tolerance (no CG)."""
    check_positive("max_iters", max_iters)
    M = MultigridPreconditioner(op)
    x = x0.copy() if x0 is not None else op.new_field()
    r = op.new_field()
    op.residual(b, x, out=r)
    r0_norm = residual_norm(op.dot(r, r))
    threshold = eps * r0_norm
    history = [r0_norm]
    res_norm = r0_norm
    converged = r0_norm <= threshold
    iterations = 0
    while not converged and iterations < max_iters:
        x.interior += M.hierarchy.cycle(r.interior.copy())
        op.residual(b, x, out=r)
        res_norm = residual_norm(op.dot(r, r))
        iterations += 1
        history.append(res_norm)
        converged = res_norm <= threshold
    result = SolveResult(
        x=x, solver="multigrid", converged=converged, iterations=iterations,
        residual_norm=res_norm, initial_residual_norm=r0_norm,
        history=history, events=op.events)
    result.n_levels = M.hierarchy.n_levels
    return result
