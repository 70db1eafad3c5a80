"""Single-reduction CG (Chronopoulos & Gear).

The paper's §VII lists this restructuring as planned work: "The Krylov
solver can be restructured so that the multiple dot products are combined
into a single communication step and the communications can be overlapped
with the application of the preconditioner."

This variant computes all three inner products of an iteration —
``gamma = <r, u>``, ``delta = <w, u>`` and the convergence check ``<r, r>`` — in
**one** fused allreduce, halving CG's global synchronisation count at the
price of one extra vector recurrence (``s = A p`` is maintained instead of
recomputed).  In exact arithmetic the iterates coincide with classical CG;
in floating point they drift slightly (the classic stability trade of
communication-reduced Krylov methods), which the tests quantify.

Per iteration: 1 matvec (one depth-1 halo exchange), 1 allreduce,
vs. classical CG's 1 matvec + 2 allreduces.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.field import Field
from repro.solvers.operator import StencilOperator2D
from repro.solvers.preconditioners import (
    IdentityPreconditioner,
    Preconditioner,
)
from repro.solvers.result import SolveResult
from repro.numerics.breakdown import BreakdownError, residual_norm
from repro.utils.validation import check_finite_field, check_positive

#: Machine-checked communication budget (see ``repro.analysis``): the
#: whole point of this variant is the single fused allreduce — adding a
#: second one silently reverts it to classical CG.
COMM_CONTRACT = {
    "solver": "cg_fused",
    "halo_exchanges_per_iter": 1,
    "allreduces_per_iter": 1,
    "halo_depth": 1,
}


def cg_fused_solve(
    op: StencilOperator2D,
    b: Field,
    x0: Field | None = None,
    *,
    eps: float = 1e-10,
    max_iters: int = 10_000,
    preconditioner: Preconditioner | None = None,
    reference_norm: float | None = None,
    cancel=None,
) -> SolveResult:
    """Solve ``A x = b`` with one global reduction per iteration."""
    check_positive("eps", eps)
    check_positive("max_iters", max_iters)
    check_finite_field("b", b)
    check_finite_field("x0", x0)
    M = preconditioner if preconditioner is not None \
        else IdentityPreconditioner(op)

    x = x0.copy() if x0 is not None else op.new_field()
    r = op.new_field()
    op.residual(b, x, out=r)

    u = op.new_field()   # u = M^-1 r
    w = op.new_field()   # w = A u
    M.apply(r, u)
    op.apply(u, w)
    gamma, delta, rr = op.dots([(r, u), (w, u), (r, r)])

    r0_norm = residual_norm(rr)
    reference = r0_norm if reference_norm is None else reference_norm
    threshold = eps * reference
    history = [r0_norm]
    alphas: list[float] = []
    betas: list[float] = []

    if r0_norm <= threshold:
        return SolveResult(x=x, solver="cg_fused", converged=True,
                           iterations=0, residual_norm=r0_norm,
                           initial_residual_norm=r0_norm, history=history,
                           events=op.events)

    if not (np.isfinite(delta) and delta > 0):
        raise BreakdownError(
            f"fused CG breakdown at setup: <Au, u> = {delta:.3e} <= 0",
            solver="cg_fused", iteration=0, quantity="pAp", value=delta)
    alpha = gamma / delta
    beta = 0.0
    p = u.copy()
    s = w.copy()   # s = A p, maintained by recurrence

    converged = False
    iterations = 0
    res_norm = r0_norm

    while iterations < max_iters:
        # Cancellation boundary: before the iteration's matvec exchange
        # and fused reduction (see repro.service.cancel).
        if cancel is not None:
            cancel.check(iterations)
        x.axpy(alpha, p, op.kernels)
        r.axpy(-alpha, s, op.kernels)
        M.apply(r, u)
        op.apply(u, w)
        gamma_new, delta, rr = op.dots([(r, u), (w, u), (r, r)])
        iterations += 1
        res_norm = residual_norm(rr)
        history.append(res_norm)
        alphas.append(float(alpha))
        if res_norm <= threshold:
            converged = True
            betas.append(float(gamma_new / gamma))
            break
        beta = gamma_new / gamma
        betas.append(float(beta))
        denom = delta - beta * gamma_new / alpha
        if not (np.isfinite(denom) and denom > 0):
            raise BreakdownError(
                f"fused CG breakdown: alpha denominator {denom:.3e} <= 0 "
                "(non-SPD operator or accumulated round-off)",
                solver="cg_fused", iteration=iterations,
                quantity="alpha_denominator", value=denom)
        alpha = gamma_new / denom
        gamma = gamma_new
        p.aypx(beta, u)
        s.aypx(beta, w)

    result = SolveResult(
        x=x,
        solver="cg_fused",
        converged=converged,
        iterations=iterations,
        residual_norm=res_norm,
        initial_residual_norm=r0_norm,
        history=history,
        events=op.events,
    )
    result.alphas = alphas
    result.betas = betas
    return result
