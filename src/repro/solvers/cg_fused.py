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

from repro.mesh.field import Field
from repro.numerics.breakdown import residual_norm
from repro.solvers.defences import Defences
from repro.solvers.operator import StencilOperator2D
from repro.solvers.preconditioners import (
    IdentityPreconditioner,
    Preconditioner,
)
from repro.solvers.result import SolveResult
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


class _FusedState:
    """What a fused-CG solve checkpoints: iterate, residual, direction and
    its maintained image ``s = A p``, and the two scalars the next step
    size is built from (see ``Defences.watch``)."""

    def __init__(self, x: Field, r: Field, p: Field, s: Field,
                 gamma: float, r0_norm: float):
        self.x, self.r, self.p, self.s, self.gamma = x, r, p, s, gamma
        self.alpha, self.iterations, self.res_norm = 0.0, 0, r0_norm
        self.history, self.alphas, self.betas = [r0_norm], [], []

    def snapshot(self) -> tuple[dict, dict]:
        return ({"x": self.x, "r": self.r, "p": self.p, "s": self.s},
                {"alpha": self.alpha, "gamma": self.gamma})

    def restore(self, iteration: int, scalars: dict) -> None:
        self.iterations = k = int(iteration)
        self.alpha, self.gamma = scalars["alpha"], scalars["gamma"]
        del self.alphas[k:], self.betas[k:], self.history[k + 1:]
        self.res_norm = self.history[-1]


def cg_fused_solve(
    op: StencilOperator2D,
    b: Field,
    x0: Field | None = None,
    *,
    eps: float = 1e-10,
    max_iters: int = 10_000,
    preconditioner: Preconditioner | None = None,
    defences: Defences | None = None,
) -> SolveResult:
    """Solve ``A x = b`` with one global reduction per iteration.

    ``defences`` (:class:`~repro.solvers.defences.Defences`) watches the
    recurrence as it watches classical CG's; the step-size denominator
    ``delta - beta gamma' / alpha`` *is* ``<p, Ap>`` in exact arithmetic
    and is screened as that curvature.
    """
    check_positive("eps", eps)
    check_positive("max_iters", max_iters)
    check_finite_field("b", b)
    check_finite_field("x0", x0)
    defences = defences if defences is not None else Defences()
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
    threshold = eps * r0_norm

    # p = u and s = A p = w, the latter maintained by recurrence from here.
    st = _FusedState(x, r, u.copy(), w.copy(), gamma, r0_norm)
    watch = defences.watch(st, op, "cg_fused")
    converged = r0_norm <= threshold
    if not converged:
        # <Au, u> is the first <p, Ap>.  No checkpoint exists yet, so there
        # is nothing to rewind to: the breakdown check alone judges it.
        watch.breakdown.curvature(delta, 0)
        st.alpha = gamma / delta

    from repro.observe.trace import tracer_of
    tracer = tracer_of(op)
    while not converged and st.iterations < max_iters:
        watch.boundary()
        with tracer.span("iteration", "cg_fused"):
            watch.begin()
            x.axpy(st.alpha, st.p, op.kernels)
            r.axpy(-st.alpha, st.s, op.kernels)
            M.apply(r, u)
            op.apply(u, w)
            gamma_new, delta, rr = op.dots([(r, u), (w, u), (r, r)])
            st.iterations += 1
            st.res_norm = residual_norm(rr)
            st.history.append(st.res_norm)
            st.alphas.append(float(st.alpha))
            if watch.residual():
                continue
            beta = gamma_new / st.gamma
            st.betas.append(float(beta))
            if st.res_norm <= threshold:
                converged = True
                break
            pap = delta - beta * gamma_new / st.alpha
            if watch.curvature(pap):
                continue
            st.alpha = gamma_new / pap
            st.gamma = gamma_new
            st.p.aypx(beta, u, op.kernels)
            st.s.aypx(beta, w, op.kernels)

    result = SolveResult(
        x=x,
        solver="cg_fused",
        converged=converged,
        iterations=st.iterations,
        residual_norm=st.res_norm,
        initial_residual_norm=r0_norm,
        history=st.history,
        events=op.events,
    )
    result.alphas = st.alphas
    result.betas = st.betas
    return result
