"""CPPCG: Chebyshev polynomially preconditioned conjugate gradients.

The paper's communication-avoiding solver (§III).  Structure:

1. **Warm-up** — ``warmup_iters`` of plain (P)CG, recording the recurrence
   coefficients; the Lanczos tridiagonal built from them yields estimates
   of the extreme eigenvalues (§III-D).
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

import numpy as np

from repro.mesh.field import Field
from repro.solvers.cg import cg_solve
from repro.solvers.chebyshev import ChebyshevPreconditioner
from repro.solvers.defences import Defences
from repro.solvers.eigen import (
    EigenBounds,
    estimate_eigenvalues,
    iteration_bounds,
)
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
    eigen_safety: tuple[float, float] = (0.95, 1.05),
    inner_preconditioner: str = "none",
    bounds: EigenBounds | None = None,
    adaptive: bool = False,
    max_restarts: int = 2,
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
        Skip estimation and use these eigenvalue bounds directly.
    adaptive:
        Robust mode (paper §VIII asks whether "these simpler methods can
        cope with extreme condition numbers robustly"): when the outer
        iteration stalls or breaks down — typically because the estimated
        ``lam_max`` undershot the spectrum and the Chebyshev polynomial
        lost positive-definiteness — re-run a short CG from the current
        iterate, re-estimate with widened safety factors, and restart, up
        to ``max_restarts`` times.
    raise_on_stall:
        Raise :class:`ConvergenceError` (with solver name, final relative
        residual and iteration count) instead of returning an unconverged
        result when the budget is exhausted.
    degrade:
        Graceful degradation: fall back to *plain CG* when the Chebyshev
        preconditioner is unusable (invalid/non-finite spectrum bounds,
        or breakdown persisting after ``max_restarts``), and fall back to
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
    from repro.observe.trace import tracer_of
    tracer = tracer_of(op)

    def phase(name, x, iters, defences, **kwargs):
        """One ``cg_solve`` phase of this solve, under its own span."""
        with tracer.span("phase", name):
            return cg_solve(op, b, x, eps=eps, max_iters=iters,
                            solver_name="ppcg", defences=defences, **kwargs)

    warmup = phase("warmup", x0, warmup_iters, defences.warmup(),
                   preconditioner=make_local_preconditioner(
                       op, inner_preconditioner))
    if warmup.converged:
        warmup.warmup_iterations = warmup.iterations
        warmup.iterations = 0
        warmup.restarts = 0
        return warmup
    if bounds is None:
        bounds = estimate_eigenvalues(warmup.alphas, warmup.betas,
                                      safety=eigen_safety)

    reference = warmup.initial_residual_norm
    extra_warmup = 0
    history_prefix = list(warmup.history)
    current_x = warmup.x
    restarts = 0
    budget = max_iters
    outer = None
    safety = eigen_safety
    depth = halo_depth
    # When set, the Chebyshev machinery is unusable and the remaining
    # budget is spent on plain CG (graceful degradation, ``degrade=True``).
    cg_reason: str | None = None

    if degrade and _invalid_bounds(bounds):
        cg_reason = ("invalid spectrum bounds "
                     f"[{bounds.lam_min:.3e}, {bounds.lam_max:.3e}]")

    while cg_reason is None:
        cheby = ChebyshevPreconditioner(
            op, bounds, steps=inner_steps, halo_depth=depth,
            inner_preconditioner=inner_preconditioner)
        # Stall detection window: Eq. 7 predicts the outer iteration count
        # *if the bounds are right*; exceeding it by 4x means they are not.
        chunk = max(budget, 1)
        if adaptive and restarts < max_restarts:
            predicted = iteration_bounds(bounds, inner_steps,
                                         tolerance=eps).k_outer
            chunk = min(chunk, int(4 * predicted) + 20)
        try:
            outer = phase("outer", current_x, chunk, defences,
                          preconditioner=cheby, reference_norm=reference)
        except CommunicationError:
            if degrade and depth > 1:
                # The deep exchanges of the matrix powers kernel keep
                # failing (retries exhausted): trade the communication
                # saving for plain depth-1 inner steps and press on.
                depth = 1
                continue
            raise
        except ConfigurationError as exc:
            # Chebyshev rejected its spectrum bounds (delta <= 0).
            if degrade:
                cg_reason = f"chebyshev preconditioner unusable: {exc}"
                break
            raise
        except ConvergenceError as exc:
            # Breakdown: restart below while the adaptive budget lasts,
            # then degrade or give up.
            if not (adaptive and restarts < max_restarts):
                if not degrade:
                    raise
                cg_reason = (
                    f"breakdown persists after {restarts} restart(s): {exc}"
                    if adaptive else
                    f"chebyshev-preconditioned CG broke down: {exc}")
                break
        else:
            history_prefix += outer.history[1:]
            budget -= outer.iterations
            current_x = outer.x
            if outer.converged or not adaptive or budget <= 0 \
                    or restarts >= max_restarts:
                break

        # Restart: widen the interval and re-estimate from where we are.
        restarts += 1
        safety = (safety[0] * 0.85, safety[1] * 1.25)
        rewarm = phase("rewarm", current_x, warmup_iters, defences.warmup(),
                       reference_norm=reference)
        extra_warmup += rewarm.iterations
        history_prefix += rewarm.history[1:]
        current_x = rewarm.x
        if rewarm.converged:
            outer = rewarm
            outer.iterations = 0
            break
        bounds = estimate_eigenvalues(rewarm.alphas, rewarm.betas,
                                      safety=safety)
        if degrade and _invalid_bounds(bounds):
            cg_reason = ("re-estimated spectrum bounds invalid "
                         f"[{bounds.lam_min:.3e}, {bounds.lam_max:.3e}]")
            break

    if cg_reason is not None:
        # Graceful degradation: finish the solve with plain CG — slower,
        # but immune to bad spectrum bounds (the stopping criterion is
        # unchanged: same eps against the same reference norm).
        outer = phase("fallback_cg", current_x, max(budget, 1), defences,
                      reference_norm=reference)
        history_prefix += outer.history[1:]
        current_x = outer.x

    outer.x = current_x
    outer.warmup_iterations = warmup.iterations + extra_warmup
    outer.history = history_prefix
    outer.eigen_bounds = (bounds.lam_min, bounds.lam_max)
    outer.restarts = restarts
    outer.degraded = cg_reason is not None or depth != halo_depth
    if cg_reason is not None:
        outer.degraded_reason = f"fell back to plain CG: {cg_reason}"
    elif depth != halo_depth:
        outer.degraded_reason = (f"matrix-powers halo depth fell back "
                                 f"{halo_depth} -> 1 after repeated "
                                 "communication failures")
    if raise_on_stall and not outer.converged:
        raise stall_error("ppcg", len(outer.history) - 1,
                          outer.residual_norm, reference, eps, result=outer)
    return outer


def _invalid_bounds(bounds: EigenBounds) -> bool:
    """Spectrum bounds the Chebyshev polynomial cannot be built from."""
    return not (np.isfinite(bounds.lam_min) and np.isfinite(bounds.lam_max)
                and 0.0 < bounds.lam_min < bounds.lam_max)
