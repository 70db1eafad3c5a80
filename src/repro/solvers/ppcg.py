"""CPPCG: Chebyshev polynomially preconditioned conjugate gradients.

The paper's communication-avoiding solver (§III).  Structure:

1. **Warm-up** — ``warmup_iters`` of plain (P)CG, recording the recurrence
   coefficients; the Lanczos tridiagonal built from them estimates
   ``lam_min`` (§III-D), and ``lam_max`` is a bound read off the operator
   (:func:`~repro.solvers.eigen.lam_max_bound`).
2. **Switch-over** — continue from the warm-up iterate with PCG whose
   preconditioner applies ``inner_steps`` Chebyshev steps per outer
   iteration (:class:`~repro.solvers.chebyshev.ChebyshevPreconditioner`).

Per *outer* iteration CPPCG pays the same two allreduces as CG but performs
``inner_steps + 1`` stencil applications, so the global-communication count
drops by roughly ``sqrt(kappa_cg / kappa_pcg)`` (Eqs. 6-7) while the matvec count is
unchanged — a trade that wins exactly where the paper's strong-scaling
study shows it: at high node counts where allreduce latency dominates.

With ``halo_depth = n > 1`` the inner iterations additionally use the
matrix powers kernel: one ``n``-deep halo exchange per ``n`` inner steps.
"""

from __future__ import annotations

from repro.mesh.field import Field
from repro.solvers.cg import cg_solve
from repro.solvers.chebyshev import ChebyshevPreconditioner, warm_up
from repro.solvers.defences import Defences
from repro.solvers.eigen import EigenBounds
from repro.solvers.operator import StencilOperator2D
from repro.solvers.preconditioners import make_local_preconditioner
from repro.solvers.result import SolveResult
from repro.utils.errors import (
    CommunicationError,
    ConfigurationError,
    ConvergenceError,
    stall_error,
)
from repro.utils.validation import check_finite_field, check_positive

#: Machine-checked communication budget (see ``repro.analysis``).  CPPCG's
#: outer loop *is* ``cg_solve`` running with the Chebyshev preconditioner,
#: so the static per-iteration budget is enforced in
#: :mod:`repro.solvers.cg` (``delegates_to``); this contract declares the
#: outer budget the dynamic verifier checks: the same two allreduces as
#: CG, one outer matvec exchange, plus one exchange per inner Chebyshev
#: step — amortised to ``ceil(inner_steps / halo_depth)`` per outer
#: iteration by the matrix powers kernel.
COMM_CONTRACT = {
    "solver": "ppcg",
    "halo_exchanges_per_iter": 1,
    "allreduces_per_iter": 2,
    "halo_exchanges_per_inner_step": 1,
    "halo_depth": 1,
    "hot_function": None,
    "delegates_to": "repro.solvers.cg",
}


def ppcg_solve(
    op: StencilOperator2D,
    b: Field,
    x0: Field | None = None,
    *,
    eps: float = 1e-10,
    max_iters: int = 10_000,
    inner_steps: int = 10,
    halo_depth: int = 1,
    warmup_iters: int = 25,
    inner_preconditioner: str = "none",
    bounds: EigenBounds | None = None,
    raise_on_stall: bool = False,
    degrade: bool = False,
    defences: Defences | None = None,
) -> SolveResult:
    """Solve ``A x = b`` with CPPCG.

    Parameters
    ----------
    inner_steps:
        Chebyshev polynomial degree ``m`` applied per outer iteration
        (TeaLeaf ``tl_ppcg_inner_steps``).
    halo_depth:
        Matrix-powers halo depth ``n`` for the inner iterations; the paper
        evaluates 1/4/8/16.  Requires operator fields with halo >= n.
    warmup_iters:
        Plain CG iterations used for eigenvalue estimation before the
        switch-over.
    inner_preconditioner:
        Local preconditioner applied inside the Chebyshev inner steps
        (``none``/``diagonal``; ``block_jacobi`` only with halo depth 1).
    bounds:
        Use this interval instead of the warm-up's (the warm-up still
        runs: the outer phase starts from its iterate).
    raise_on_stall:
        Raise :class:`ConvergenceError` (with solver name, final relative
        residual and iteration count) instead of returning an unconverged
        result when the budget is exhausted.
    degrade:
        Graceful degradation: fall back to *plain CG* when the Chebyshev
        preconditioner is unusable (an interval it rejects, or a breakdown
        of the outer recurrence — say, under a caller's ``bounds`` that
        miss the spectrum), and fall back to
        ``halo_depth = 1`` when the matrix-powers deep exchanges keep
        failing with :class:`CommunicationError`.  A degraded result
        carries ``result.degraded = True`` and ``result.degraded_reason``.
    defences:
        The :class:`~repro.solvers.defences.Defences` of every ``cg_solve``
        phase (ABFT replay matters most here: corruption crosses
        ``inner_steps`` stencil applications before a residual check sees
        it; replacement is what lets depth-16 CPPCG reach depth-1's *true*
        tolerance).  Warm-up phases run them as ``defences.warmup()``.
    """
    check_positive("inner_steps", inner_steps)
    check_positive("warmup_iters", warmup_iters)
    check_finite_field("b", b)
    check_finite_field("x0", x0)
    if not 1 <= halo_depth <= op.halo:
        raise ConfigurationError(
            f"halo_depth {halo_depth} requires operator halo >= {halo_depth}, "
            f"got {op.halo}")
    if inner_preconditioner == "block_jacobi" and halo_depth > 1:
        raise ConfigurationError(
            "block Jacobi cannot be combined with matrix powers "
            "(halo_depth > 1); see paper §IV-C2")

    defences = defences if defences is not None else Defences()
    # One local preconditioner for the warm-up and every inner iteration:
    # block Jacobi factorises its strips once, the diagonal exchanges its
    # halo once.
    local_M = make_local_preconditioner(op, inner_preconditioner)
    warmup, bounds = warm_up(
        op, b, x0, local_M, eps=eps, warmup_iters=warmup_iters, bounds=bounds,
        solver_name="ppcg", defences=defences)
    if bounds is None:
        return warmup
    from repro.observe.trace import tracer_of
    tracer = tracer_of(op)

    def phase(name, **kwargs):
        """One ``cg_solve`` phase from the warm-up's iterate, under its
        own span."""
        with tracer.span("phase", name):
            return cg_solve(op, b, warmup.x, eps=eps, max_iters=max_iters,
                            solver_name="ppcg", defences=defences,
                            reference_norm=warmup.initial_residual_norm,
                            **kwargs)

    depth = halo_depth
    # Set when the Chebyshev machinery is unusable and the budget is
    # spent on plain CG instead (graceful degradation, ``degrade=True``).
    reason: str | None = None
    while True:
        try:
            outer = phase("outer", preconditioner=ChebyshevPreconditioner(
                op, bounds, steps=inner_steps, halo_depth=depth,
                local_precond=local_M))
            break
        except CommunicationError:
            if not (degrade and depth > 1):
                raise
            # The deep exchanges of the matrix powers kernel keep failing
            # (retries exhausted): trade the communication saving for
            # plain depth-1 inner steps and press on.
            depth = 1
        except (ConfigurationError, ConvergenceError) as exc:
            # Chebyshev rejected its interval (delta <= 0), or the outer
            # recurrence broke down.
            if not degrade:
                raise
            reason = f"chebyshev-preconditioned CG broke down: {exc}"
            # Finish on plain CG — slower, but immune to the interval
            # (same eps against the same reference norm).
            outer = phase("fallback_cg")
            break

    outer.warmup_iterations = warmup.iterations
    outer.history = warmup.history + outer.history[1:]
    outer.eigen_bounds = (bounds.lam_min, bounds.lam_max)
    outer.degraded = reason is not None or depth != halo_depth
    if reason is not None:
        outer.degraded_reason = f"fell back to plain CG: {reason}"
    elif depth != halo_depth:
        outer.degraded_reason = (f"matrix-powers halo depth fell back "
                                 f"{halo_depth} -> 1 after repeated "
                                 "communication failures")
    if raise_on_stall and not outer.converged:
        raise stall_error("ppcg", len(outer.history) - 1,
                          outer.residual_norm, warmup.initial_residual_norm,
                          eps, result=outer)
    return outer
