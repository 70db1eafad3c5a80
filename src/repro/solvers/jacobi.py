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
from repro.numerics.breakdown import residual_norm
from repro.solvers.defences import Defences
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


class _Relaxation:
    """What a Jacobi solve checkpoints: the iterate and its residual (see
    ``Defences.watch``)."""

    def __init__(self, x: Field, r: Field, r0_norm: float):
        self.x, self.r, self.history = x, r, [r0_norm]
        self.iterations, self.res_norm = 0, r0_norm

    def snapshot(self) -> tuple[dict, dict]:
        return {"x": self.x, "r": self.r}, {}

    def restore(self, iteration: int, scalars: dict) -> None:
        self.iterations = int(iteration)
        del self.history[self.iterations + 1:]
        self.res_norm = self.history[-1]


def jacobi_solve(
    op: StencilOperator2D,
    b: Field,
    x0: Field | None = None,
    *,
    eps: float = 1e-10,
    max_iters: int = 100_000,
    defences: Defences | None = None,
) -> SolveResult:
    """Solve ``A x = b`` by Jacobi iteration.

    Converges for the diffusion operator (strictly diagonally dominant),
    but slowly — it exists as the paper's simplest baseline and as the
    smoother building block for multigrid.  ``defences``
    (:class:`~repro.solvers.defences.Defences`) watches the sweep as it
    watches every recurrence: a non-finite residual rolls back to the
    guard's checkpoint or raises
    :class:`~repro.numerics.breakdown.BreakdownError`, the stagnation
    window bounds how long the residual may fail to improve, and
    cancellation fires before a sweep communicates.
    """
    check_positive("eps", eps)
    check_positive("max_iters", max_iters)
    check_finite_field("b", b)
    check_finite_field("x0", x0)
    defences = defences if defences is not None else Defences()
    x = x0.copy() if x0 is not None else op.new_field()
    r = op.new_field()
    inv_diag = 1.0 / op.diagonal()

    rr = op.residual_dot(b, x, out=r)
    r0_norm = residual_norm(rr)
    threshold = eps * r0_norm
    s = _Relaxation(x, r, r0_norm)
    converged = r0_norm <= threshold
    watch = defences.watch(s, op, "jacobi")

    from repro.observe.trace import tracer_of
    tracer = tracer_of(op)
    while not converged and s.iterations < max_iters:
        watch.boundary()
        with tracer.span("iteration", "jacobi"):
            watch.begin()
            # x += D^-1 r; r is recomputed whole just below.
            ri = r.interior
            np.multiply(inv_diag, ri, out=ri)
            x.axpy(1.0, r, op.kernels)
            # Fused residual + convergence dot: one exchange, one
            # allreduce, exactly the budget of the residual + dot pair.
            rr = op.residual_dot(b, x, out=r)
            s.iterations += 1
            s.res_norm = residual_norm(rr)
            s.history.append(s.res_norm)
            if watch.residual():
                continue
            converged = s.res_norm <= threshold

    return SolveResult(
        x=x,
        solver="jacobi",
        converged=converged,
        iterations=s.iterations,
        residual_norm=s.res_norm,
        initial_residual_norm=r0_norm,
        history=s.history,
        events=op.events,
    )
