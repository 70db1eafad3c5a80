"""Point-Jacobi relaxation (TeaLeaf ``tl_use_jacobi``).

The simplest solver in the design space: per iteration one depth-1 halo
exchange, one stencil application and one allreduce (the convergence check).
Written in correction form ``u <- u + D^{-1}(b - A u)``, which is
algebraically identical to the classic update ``D u_new = b + N u_old`` and
reuses the shared matvec kernel.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.field import Field
from repro.numerics.breakdown import BreakdownGuard, residual_norm
from repro.solvers.operator import StencilOperator2D
from repro.solvers.result import SolveResult
from repro.utils.validation import check_finite_field, check_positive

#: Machine-checked communication budget (see ``repro.analysis``): one
#: depth-1 exchange in the residual matvec plus the convergence-check
#: allreduce.
COMM_CONTRACT = {
    "solver": "jacobi",
    "halo_exchanges_per_iter": 1,
    "allreduces_per_iter": 1,
    "halo_depth": 1,
}


def jacobi_solve(
    op: StencilOperator2D,
    b: Field,
    x0: Field | None = None,
    *,
    eps: float = 1e-10,
    max_iters: int = 100_000,
    stagnation_window: int = 0,
    cancel=None,
) -> SolveResult:
    """Solve ``A x = b`` by Jacobi iteration.

    Converges for the diffusion operator (strictly diagonally dominant),
    but slowly — it exists as the paper's simplest baseline and as the
    smoother building block for multigrid.  The shared breakdown guard
    (:mod:`repro.numerics.breakdown`) turns a non-finite residual into a
    loud :class:`~repro.numerics.breakdown.BreakdownError` (previously the
    loop would spin its whole budget on NaNs); ``stagnation_window``
    additionally bounds how long the residual may fail to improve.
    """
    check_positive("eps", eps)
    check_positive("max_iters", max_iters)
    check_finite_field("b", b)
    check_finite_field("x0", x0)
    breakdown = BreakdownGuard("jacobi",
                               stagnation_window=stagnation_window)
    x = x0.copy() if x0 is not None else op.new_field()
    r = op.new_field()
    inv_diag = 1.0 / op.diagonal()

    rr = op.residual_dot(b, x, out=r)
    r0_norm = residual_norm(rr)
    threshold = eps * r0_norm
    history = [r0_norm]
    converged = r0_norm <= threshold
    iterations = 0
    res_norm = r0_norm

    from repro.observe.trace import tracer_of
    tracer = tracer_of(op)
    while not converged and iterations < max_iters:
        # Cancellation boundary: before the iteration's exchange/reduce,
        # so all ranks stop coherently (see repro.service.cancel).
        if cancel is not None:
            cancel.check(iterations)
        with tracer.span("iteration", "jacobi"):
            # x += D^-1 r; r is recomputed whole just below.
            ri = r.interior
            np.multiply(inv_diag, ri, out=ri)
            x.axpy(1.0, r, op.kernels)
            # Fused residual + convergence dot: one exchange, one
            # allreduce, exactly the budget of the residual + dot pair.
            rr = op.residual_dot(b, x, out=r)
            iterations += 1
            res_norm = residual_norm(rr)
            history.append(res_norm)
            breakdown.residual(res_norm, iterations)
            converged = res_norm <= threshold

    return SolveResult(
        x=x,
        solver="jacobi",
        converged=converged,
        iterations=iterations,
        residual_norm=res_norm,
        initial_residual_norm=r0_norm,
        history=history,
        events=op.events,
    )
