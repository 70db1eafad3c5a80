"""(Preconditioned) conjugate gradient solver.

Communication per iteration (the quantities the paper's scaling analysis is
built on):

- one depth-1 halo exchange (inside the matvec), and
- two global reductions: ``pw = <p, Ap>`` and the fused ``(<r,z>, <r,r>)``
  pair — the fusion of the convergence-check and direction dot products into
  a single allreduce is the "multiple dot products combined into a single
  communication step" restructuring the paper mentions (§VII).

The CG coefficients ``alpha_i``/``beta_i`` are recorded so the Lanczos
eigenvalue estimation (:mod:`repro.solvers.eigen`) can consume them — this
is how CPPCG obtains its spectrum bounds (§III-D).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.mesh.field import Field
from repro.numerics.breakdown import BreakdownGuard
from repro.numerics.replacement import ResidualReplacer
from repro.solvers.operator import StencilOperator2D
from repro.solvers.preconditioners import (
    IdentityPreconditioner,
    Preconditioner,
)
from repro.solvers.result import SolveResult
from repro.utils.errors import (
    ConfigurationError,
    ConvergenceError,
    stall_error,
)
from repro.utils.events import recovery_scope, replacement_scope
from repro.utils.validation import check_finite_field, check_positive

if TYPE_CHECKING:
    from repro.resilience.guard import SolverGuard, Snapshot

#: Machine-checked communication budget per CG iteration (enforced by
#: ``python -m repro.analysis``): one depth-1 halo exchange inside the
#: matvec and two fused allreduces — ``<p, Ap>`` and the combined
#: ``(<r,z>, <r,r>)`` pair.  The scaling figures assume exactly this.
COMM_CONTRACT = {
    "solver": "cg",
    "halo_exchanges_per_iter": 1,
    "allreduces_per_iter": 2,
    "halo_depth": 1,
}


def _norm(rr: float) -> float:
    """``sqrt(rr)``, or NaN for the negative or NaN ``rr`` of a corrupted
    reduction — decided before any square root is taken, so the guards
    that screen every norm report it, not a numpy ``RuntimeWarning``."""
    return math.sqrt(rr) if rr >= 0.0 else math.nan


def _rewind(snap: "Snapshot", alphas: list, betas: list, history: list):
    """Truncate the recurrence records back to a guard checkpoint.

    Field data has already been restored by ``guard.rollback``; this
    drops the coefficients/history recorded since the checkpoint and
    returns the loop scalars to reinstate.
    """
    steps = snap.scalars["steps"]
    del alphas[steps:], betas[steps:], history[steps + 1:]
    return (snap.iteration, snap.scalars["rz"], snap.scalars["rr"],
            snap.scalars["pa"], history[-1])


def cg_solve(
    op: StencilOperator2D,
    b: Field,
    x0: Field | None = None,
    *,
    eps: float = 1e-10,
    max_iters: int = 10_000,
    preconditioner: Preconditioner | None = None,
    reference_norm: float | None = None,
    solver_name: str = "cg",
    raise_on_stall: bool = False,
    guard: "SolverGuard | None" = None,
    abft_interval: int = 0,
    abft_tolerance: float = 1e-6,
    replace_interval: int = 0,
    replace_adaptive: bool = False,
    replace_tolerance: float = 0.0,
    stagnation_window: int = 0,
    cancel=None,
    resume_state: dict | None = None,
) -> SolveResult:
    """Solve ``A x = b`` with (preconditioned) CG.

    Parameters
    ----------
    op, b, x0:
        Operator, right-hand side, and optional initial guess (zero default).
    eps:
        Relative tolerance: converged when ``||r|| <= eps * reference``.
    max_iters:
        Outer-iteration budget.
    preconditioner:
        ``z = M^{-1} r`` provider; identity when omitted.  Pass a
        :class:`~repro.solvers.chebyshev.ChebyshevPreconditioner` to get
        CPPCG's outer loop.
    reference_norm:
        Norm the tolerance is relative to; defaults to the *initial residual
        norm* of this call.  PPCG's second phase passes the phase-1 value so
        the overall stopping criterion is unchanged by the switch-over.
    raise_on_stall:
        Raise :class:`ConvergenceError` instead of returning an unconverged
        result when the budget is exhausted.
    guard:
        Optional :class:`~repro.resilience.guard.SolverGuard`: checkpoint
        the live state (``x``/``r``/``p`` plus the recurrence scalars)
        every ``guard.interval`` iterations, screen each residual norm
        for NaN/Inf and divergence, and roll back to the last checkpoint
        instead of raising when an iteration is unhealthy (bounded by the
        guard's rollback budget).  With ``guard=None`` behaviour is
        byte-identical to the unguarded solver.
    abft_interval:
        When positive, every this many iterations the *true* residual
        ``b - A x`` is recomputed and its norm compared against the
        recurrence's ``||r||`` — the ABFT-style replay that catches
        corruption checksums cannot see (a consistently corrupted
        recurrence whose own norm still looks healthy).  The replay's
        halo exchange and reduction run under the recovery scope, so
        contract counts see first-attempt traffic only.
    abft_tolerance:
        Relative drift budget for the replay check: a deviation beyond
        ``abft_tolerance * reference`` triggers a guard rollback (or a
        :class:`ConvergenceError` without a guard).
    replace_interval / replace_adaptive / replace_tolerance:
        Residual replacement (:mod:`repro.numerics.replacement`): every
        ``replace_interval`` iterations recompute the true residual
        ``b - A x`` and, when the recurrence has drifted beyond the
        rounding-error bound, splice it in and restart the search
        direction.  ``replace_adaptive`` shrinks the cadence using live
        Lanczos condition estimates; ``replace_tolerance`` overrides the
        derived drift bound.  The check's halo exchange and reduction run
        under the replacement event scope, so first-attempt
        ``COMM_CONTRACT`` counts are unchanged.  0 disables.
    stagnation_window:
        Breakdown-guard stagnation window (0 disables).
    cancel:
        Optional :class:`~repro.service.cancel.CancelToken`-like object
        whose ``check(iteration)`` is called at every iteration boundary
        *before* the iteration issues any communication, so a fired
        token stops all ranks at the same boundary with no in-flight
        messages.  An inert token is bit-transparent.
    resume_state:
        Exact mid-solve resume from a durable guard snapshot:
        ``{"iteration": k, "arrays": {"x","r","p"}, "scalars":
        {"rz","rr","pa","reference"}}`` (the shape a
        :class:`~repro.resilience.checkpoint.SolverCheckpointStore`
        shard holds).  The entire pre-loop phase is skipped and the
        recurrence continues from iteration ``k`` with the restored
        fields and scalars — exactly a guard rollback, but into a fresh
        process.  Because snapshots are taken at iteration boundaries,
        the resumed trajectory is **bit-identical** to the
        uninterrupted run from ``k`` on, provided nothing perturbs the
        replay: no fault injection and ``replace_interval=0`` (the
        replacer's condition estimates depend on the truncated
        coefficient history).  ``x0`` and ``reference_norm`` are
        ignored when resuming.

    Returns
    -------
    SolveResult
        With ``alphas``/``betas`` attached as attributes for eigenvalue
        estimation.
    """
    check_positive("eps", eps)
    check_positive("max_iters", max_iters)
    check_positive("abft_interval", abft_interval, allow_zero=True)
    check_positive("abft_tolerance", abft_tolerance)
    check_positive("replace_interval", replace_interval, allow_zero=True)
    check_finite_field("b", b)
    check_finite_field("x0", x0)
    breakdown = BreakdownGuard(solver_name,
                               stagnation_window=stagnation_window)
    replacer = None
    if replace_interval:
        replacer = ResidualReplacer(replace_interval, dtype=str(op.dtype),
                                    adaptive=replace_adaptive,
                                    tolerance=replace_tolerance)
    M = preconditioner if preconditioner is not None else IdentityPreconditioner(op)
    identity = isinstance(M, IdentityPreconditioner)
    from repro.observe.trace import tracer_of
    tracer = tracer_of(op)

    w = op.new_field()
    alphas: list[float] = []
    betas: list[float] = []

    if resume_state is not None:
        if replace_interval:
            raise ConfigurationError(
                "exact CG resume is incompatible with residual "
                "replacement (replace_interval must be 0)")
        arrays = resume_state["arrays"]
        scalars = resume_state["scalars"]
        x, r, p = op.new_field(), op.new_field(), op.new_field()
        x.data[...] = arrays["x"]
        r.data[...] = arrays["r"]
        p.data[...] = arrays["p"]
        # z is recomputed from r before its first use in the loop body;
        # for the identity preconditioner it must alias r as usual.
        z = r if identity else op.new_field()
        rz = float(scalars["rz"])
        rr = float(scalars["rr"])
        precond_applies = int(scalars["pa"])
        reference = float(scalars["reference"])
        iterations = int(resume_state["iteration"])
        threshold = eps * reference
        res_norm = _norm(rr)
        r0_norm = reference
        history = [res_norm]
        converged = res_norm <= threshold
    else:
        x = x0.copy() if x0 is not None else op.new_field()
        r = op.new_field()
        op.residual(b, x, out=r)

        if identity:
            z = r
            (rz,) = op.dots([(r, r)])
            rr = rz
        else:
            z = op.new_field()
            with tracer.span("precond", solver_name):
                M.apply(r, z)
            rz, rr = op.dots([(r, z), (r, r)])
        p = z.copy()

        r0_norm = _norm(rr)
        reference = r0_norm if reference_norm is None else reference_norm
        threshold = eps * reference
        history = [r0_norm]

        converged = r0_norm <= threshold
        iterations = 0
        # the pre-loop z = M^-1 r counts toward inner-iteration accounting
        precond_applies = 0 if identity else 1
        res_norm = r0_norm

    while not converged and iterations < max_iters:
        # Cancellation boundary: checked before the iteration issues any
        # communication, so every rank stops at the same boundary with
        # nothing in flight (see repro.service.cancel).
        if cancel is not None:
            cancel.check(iterations)
        # The span covers the full loop body, so ``iteration`` spans are
        # strict parents of the halo/allreduce/precond spans within —
        # `continue`/`break`/raise all close it cleanly.
        with tracer.span("iteration", solver_name):
            if guard is not None:
                guard.begin(iterations)
                if guard.due(iterations):
                    with tracer.span("checkpoint", solver_name):
                        guard.save(iterations,
                                   fields={"x": x, "r": r, "p": p},
                                   scalars={"rz": rz, "rr": rr,
                                            "pa": precond_applies,
                                            "steps": len(alphas),
                                            "reference": reference})
            # Fused matvec + direction dot: same exchange/allreduce budget
            # as the apply + dots pair, one streaming pass on fused
            # backends.
            pw = op.apply_dot(p, w)
            if guard is not None and not (np.isfinite(pw) and pw > 0.0):
                # Corrupted reduction or perturbed direction vector: restore
                # the last checkpoint and replay (the fault stream has moved
                # on, so the replayed iterations see clean communication).
                with tracer.span("recover", solver_name):
                    snap = guard.rollback(f"<p, Ap> = {pw:.3e}")
                    iterations, rz, rr, precond_applies, res_norm = _rewind(
                        snap, alphas, betas, history)
                    breakdown.reset()
                continue
            # Curvature guard: finite *and* positive (an unguarded
            # ``pw <= 0`` test is False for NaN, which used to let a
            # poisoned reduction silently NaN the whole recurrence).
            breakdown.curvature(pw, iterations)
            alpha = rz / pw
            op.kernels.axpy(x.interior, alpha, p.interior)
            op.kernels.axpy(r.interior, -alpha, w.interior)
            if identity:
                (rz_new,) = op.dots([(r, r)])
                rr = rz_new
            else:
                with tracer.span("precond", solver_name):
                    M.apply(r, z)
                precond_applies += 1
                rz_new, rr = op.dots([(r, z), (r, r)])
            beta = rz_new / rz
            alphas.append(float(alpha))
            betas.append(float(beta))
            iterations += 1
            res_norm = _norm(rr)
            history.append(res_norm)
            if guard is not None and not guard.healthy(res_norm):
                with tracer.span("recover", solver_name):
                    snap = guard.rollback(f"residual norm {res_norm:.3e}")
                    iterations, rz, rr, precond_applies, res_norm = _rewind(
                        snap, alphas, betas, history)
                    breakdown.reset()
                continue
            breakdown.residual(res_norm, iterations)
            if abft_interval and iterations % abft_interval == 0:
                # ABFT residual replay: recompute the *true* residual and
                # check the recurrence hasn't silently drifted away from it
                # (w is free scratch here; its next use overwrites it).
                # Its extra halo exchange + reduction run under the
                # recovery scope so contract counts stay first-attempt.
                with tracer.span("recover", "abft_replay"), \
                        recovery_scope(op.events,
                                       getattr(op.comm, "events", None)):
                    op.residual(b, x, out=w)
                    (true_rr,) = op.dots([(w, w)])
                true_norm = _norm(true_rr)
                if abs(true_norm - res_norm) > abft_tolerance * reference:
                    reason = (f"ABFT replay: true residual {true_norm:.6e} "
                              f"vs recurrence {res_norm:.6e} at iteration "
                              f"{iterations}")
                    if guard is not None:
                        with tracer.span("recover", solver_name):
                            snap = guard.rollback(reason)
                            (iterations, rz, rr, precond_applies,
                             res_norm) = _rewind(snap, alphas, betas,
                                                 history)
                        continue
                    raise ConvergenceError(
                        f"silent corruption detected — {reason}")
            if replacer is not None and (replacer.due(iterations)
                                         or res_norm <= threshold):
                # Residual replacement (van der Vorst-Ye): recompute the
                # true residual; when the recurrence has drifted past the
                # rounding-error bound, splice it in and restart the
                # search direction (beta = 0).  Also forced whenever the
                # recurrence claims convergence, so the tolerance test
                # below is always taken against a freshly verified
                # residual (false convergence is the signature failure of
                # a drifted recurrence).  Decisions come from
                # globally-reduced scalars, so every rank takes the same
                # branch; the extra exchange and reductions run under the
                # replacement scope to keep first-attempt contract counts
                # exact.
                replacer.update_condition(alphas, betas)
                with tracer.span("replace", solver_name), \
                        replacement_scope(op.events,
                                          getattr(op.comm, "events", None)):
                    op.residual(b, x, out=w)
                    (true_rr,) = op.dots([(w, w)])
                    true_norm = _norm(true_rr)
                    if replacer.observe(abs(true_norm - res_norm),
                                        max(true_norm, res_norm),
                                        iterations):
                        r.interior[...] = w.interior
                        if identity:
                            rz_new = rr = true_rr
                        else:
                            M.apply(r, z)
                            precond_applies += 1
                            rz_new, rr = op.dots([(r, z), (r, r)])
                        beta = 0.0
                        res_norm = _norm(rr)
                        history[-1] = res_norm
                        breakdown.reset()
            if res_norm <= threshold:
                converged = True
                break
            if guard is not None and not np.isfinite(beta):
                # A corrupted (rz, rr) reduction poisons beta before it
                # poisons the residual norm: roll back now rather than let
                # NaNs propagate into p and surface one matvec later.
                with tracer.span("recover", solver_name):
                    snap = guard.rollback(f"beta = {beta!r}")
                    iterations, rz, rr, precond_applies, res_norm = _rewind(
                        snap, alphas, betas, history)
                    breakdown.reset()
                continue
            breakdown.coefficient("beta", beta, iterations)
            pi = p.interior
            pi *= beta
            pi += z.interior
            rz = rz_new

    if not converged and raise_on_stall:
        raise stall_error(solver_name, iterations, res_norm, reference, eps)

    result = SolveResult(
        x=x,
        solver=solver_name,
        converged=converged,
        iterations=iterations,
        inner_iterations=precond_applies * M.inner_steps,
        residual_norm=res_norm,
        initial_residual_norm=r0_norm,
        history=history,
        events=op.events,
    )
    # CG recurrence coefficients for Lanczos eigenvalue estimation.
    result.alphas = alphas
    result.betas = betas
    # Residual-replacement accounting for harnesses/stability sweeps.
    result.replacement = replacer.stats if replacer is not None else None
    return result
