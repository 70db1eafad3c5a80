"""Mixed-precision iterative refinement around reduced-precision solves.

The classic three-precision scheme specialised to two: the inner solver
(any of the configured Krylov/relaxation solvers) runs entirely at the
*working* precision (float32 operator, fields and recurrence), while the
outer loop accumulates the solution and recomputes the defect
``d = b - A x`` in float64.  Each outer step solves ``A c = d`` at working
precision and applies the correction ``x <- x + c``; as long as
``u_working * kappa(A)`` is comfortably below 1, the defect norm contracts
every step and the final accuracy is set by the float64 defect arithmetic,
not by the working precision.

When that contraction fails — refinement stagnates, the inner solver
breaks down, or the Lanczos condition estimate says float32 cannot make
progress at all — the loop **escalates**: it re-solves in float64 from the
current iterate and attaches a structured :class:`PrecisionDiagnosis`
explaining why, so harnesses can report "float32 was hopeless here"
instead of silently burning the iteration budget.

All outer-loop defect computations run under
:func:`repro.utils.events.replacement_scope`: they are real communication,
but not part of any solver's per-iteration ``COMM_CONTRACT``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from repro.mesh.field import Field
from repro.numerics.precision import (
    cast_field,
    cast_operator,
    inner_tolerance,
    unit_roundoff,
)
from repro.solvers.eigen import condition_estimate
from repro.solvers.result import SolveResult
from repro.utils.errors import ConvergenceError
from repro.utils.events import replacement_scope

#: Refinement is declared hopeless at the working precision once
#: ``u_working * kappa`` exceeds this (the inner solver then cannot even
#: resolve the defect system's dominant digits).
HOPELESS_THRESHOLD = 0.1


@dataclass(frozen=True)
class PrecisionDiagnosis:
    """Structured account of a mixed-precision solve's precision decisions.

    Attached to the returned :class:`SolveResult` as ``result.diagnosis``.
    """

    working_dtype: str
    final_dtype: str
    escalated: bool
    reason: str
    kappa_estimate: float
    attainable: float
    refinement_steps: int

    def summary(self) -> str:
        head = (f"escalated {self.working_dtype} -> {self.final_dtype}"
                if self.escalated else f"completed in {self.working_dtype}")
        return (f"{head} after {self.refinement_steps} refinement step(s): "
                f"{self.reason or 'defect contraction healthy'} "
                f"(kappa ~ {self.kappa_estimate:.3e}, "
                f"attainable ~ {self.attainable:.3e})")


def _defect_norm(op, b, x, d) -> float:
    """``d = b - A x`` and its global norm, in the outer precision."""
    with replacement_scope(op.events, getattr(op.comm, "events", None)):
        op.residual(b, x, out=d)
        (dd,) = op.dots([(d, d)])
    return float(np.sqrt(dd))


def refined_solve(op, b, x0, options, guard=None, cancel=None,
                  setup=None) -> SolveResult:
    """Solve ``A x = b`` by iterative refinement at ``options.dtype``.

    ``op``/``b`` are the caller's (float64) operator and right-hand side;
    the working-precision copies are created here, once.  The returned
    solution field is float64.  ``guard``, ``cancel`` and ``setup`` go to
    every inner and escalation solve as :func:`solve_linear` takes them; a
    token's iteration budget counts boundaries of the inner solve in
    flight, not of the refinement as a whole.
    """
    from repro.observe.trace import tracer_of
    from repro.solvers.driver import solve_linear

    working = options.dtype
    u_work = unit_roundoff(working)
    tracer = tracer_of(op)

    op_w = cast_operator(op, working)
    inner_opt = dc_replace(options, refine=False, true_residual=False,
                           dtype=working, raise_on_stall=False,
                           eps=inner_tolerance(working, options.eps))
    escalate_opt = dc_replace(options, refine=False, true_residual=False,
                              dtype="float64")

    x = x0.copy() if x0 is not None else op.new_field()
    d = op.new_field()
    norm = _defect_norm(op, b, x, d)
    r0 = norm
    threshold = options.eps * r0 if r0 > 0.0 else 0.0
    history = [norm]

    steps = 0
    iterations = inner_iters = warmup_iters = 0
    kappa = 1.0
    reason = ""
    escalated = False
    final_result = None

    while norm > threshold and steps < options.refine_max_steps:
        with tracer.span("refine", working):
            d_w = cast_field(d, working)
            try:
                inner = solve_linear(op_w, d_w, None, options=inner_opt,
                                     guard=guard, cancel=cancel, setup=setup)
            except ConvergenceError as exc:
                reason = f"inner {options.solver} solve failed: {exc}"
                break
        iterations += inner.iterations
        inner_iters += inner.inner_iterations
        warmup_iters += inner.warmup_iterations
        kappa = condition_estimate(getattr(inner, "alphas", ()),
                                   getattr(inner, "betas", ()),
                                   default=kappa)
        x.interior += inner.x.interior
        steps += 1
        prev = norm
        norm = _defect_norm(op, b, x, d)
        history.append(norm)
        if u_work * kappa > HOPELESS_THRESHOLD:
            reason = (f"condition estimate kappa ~ {kappa:.3e} makes "
                      f"{working} refinement hopeless "
                      f"(u * kappa = {u_work * kappa:.3e})")
            break
        if not math.isfinite(norm) or norm > options.refine_stagnation * prev:
            reason = (f"refinement stagnated at step {steps}: defect "
                      f"{prev:.6e} -> {norm:.6e}")
            break

    if norm > threshold and not reason:
        reason = (f"refinement budget of {options.refine_max_steps} "
                  f"step(s) exhausted at defect {norm:.6e}")
    if norm > threshold:
        # The working precision cannot finish the job: re-solve the
        # original system in float64 from the current iterate (escalation
        # is the remedy the diagnosis explains).
        escalated = True
        with tracer.span("refine", "escalate"):
            final_result = solve_linear(op, b, x, options=escalate_opt,
                                        guard=guard, cancel=cancel,
                                        setup=setup)
        iterations += final_result.iterations
        inner_iters += final_result.inner_iterations
        warmup_iters += final_result.warmup_iterations
        x = final_result.x
        norm = _defect_norm(op, b, x, d)
        history.append(norm)

    converged = norm <= threshold
    diagnosis = PrecisionDiagnosis(
        working_dtype=working,
        final_dtype="float64" if escalated else working,
        escalated=escalated,
        reason=reason,
        kappa_estimate=kappa,
        attainable=u_work * max(kappa, 1.0),
        refinement_steps=steps,
    )

    if not converged and options.raise_on_stall:
        err = ConvergenceError(
            f"{options.solver}+refinement did not converge: defect norm "
            f"{norm:.3e} > {threshold:.3e} after {steps} refinement "
            f"step(s) — {diagnosis.summary()}")
        err.diagnosis = diagnosis
        raise err

    result = SolveResult(
        x=x,
        solver=options.solver,
        converged=converged,
        iterations=iterations,
        residual_norm=norm,
        initial_residual_norm=r0,
        inner_iterations=inner_iters,
        warmup_iterations=warmup_iters,
        history=history,
        eigen_bounds=(final_result.eigen_bounds
                      if final_result is not None else None),
        events=op.events,
    )
    result.diagnosis = diagnosis
    result.refinement_steps = steps
    # The outer defect *is* the true residual — float64 b - A x.
    result.true_residual_norm = norm
    return result
