"""What happens when a recurrence scalar is unhealthy or a check is due.

The solver loops (:mod:`~repro.solvers.cg` — which is also the loop of
ppcg, mgcg and deflated CG —, :mod:`~repro.solvers.cg_fused`,
:mod:`~repro.solvers.chebyshev`, :mod:`~repro.solvers.jacobi`) state the
paper's algorithms; every
safeguard around them lives in :class:`Defences`, built once per solve by
:func:`~repro.solvers.driver.solve_linear`.  ``defences.watch(state, op,
name)`` binds a copy to one recurrence, whose loop calls its hooks; a
screening hook answers ``False`` (proceed), ``True`` (the state was rewound
to the guard's last checkpoint: restart the iteration) or raises.  "With a
guard roll back, without one raise ``BreakdownError``" is decided here and
nowhere else.  ``state`` is any object with ``iterations``, ``res_norm``,
``snapshot() -> (fields, scalars)`` and ``restore(iteration, scalars)``.
docs/resilience.md ("Wiring: one ``Defences`` object") has the protocol and
how to add a defence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.numerics.breakdown import BreakdownGuard, residual_norm
from repro.numerics.replacement import ResidualReplacer
from repro.utils.errors import ConvergenceError
from repro.utils.events import recovery_scope, replacement_scope
from repro.utils.validation import check_positive


@dataclass
class Defences:
    """The safeguards of one solve.

    ``guard`` — optional :class:`~repro.resilience.guard.SolverGuard`:
    checkpoint the recurrence every ``guard.interval`` iterations, screen
    each residual norm for NaN/Inf and divergence, and roll back instead of
    raising on an unhealthy iteration (within its rollback budget).
    ``cancel`` — optional :class:`~repro.service.cancel.CancelToken`-like
    object checked at every iteration boundary *before* the iteration
    communicates, so all ranks stop at the same boundary with nothing in
    flight; an inert token is bit-transparent.
    ``abft_interval`` / ``abft_tolerance`` — when positive, every that many
    iterations the *true* residual ``b - A x`` is recomputed and compared
    with the recurrence's ``||r||`` (corruption checksums cannot see); a
    gap beyond ``abft_tolerance * reference`` rolls back, or raises
    :class:`ConvergenceError` without a guard.
    ``replace_interval`` / ``replace_adaptive`` / ``replace_tolerance`` —
    residual replacement (:mod:`repro.numerics.replacement`): at that
    cadence, and whenever the recurrence claims convergence, splice the
    true residual in when the drift exceeds the rounding-error bound.
    ``stagnation_window`` — breakdown-guard stagnation window; every
    recurrence starts a fresh one.  0 disables each of the last three.
    """

    guard: object | None = None
    cancel: object | None = None
    abft_interval: int = 0
    abft_tolerance: float = 1e-6
    replace_interval: int = 0
    replace_adaptive: bool = False
    replace_tolerance: float = 0.0
    stagnation_window: int = 0

    def __post_init__(self):
        check_positive("abft_interval", self.abft_interval, allow_zero=True)
        check_positive("abft_tolerance", self.abft_tolerance)
        check_positive("replace_interval", self.replace_interval,
                       allow_zero=True)

    @classmethod
    def from_options(cls, opt, guard=None, cancel=None) -> "Defences":
        """What ``opt`` asks for.  A pre-built ``guard`` (sharing its
        iteration cell with a fault injector) wins over the one
        ``opt.guard_interval`` would construct."""
        if guard is None and opt.guard_interval > 0:
            from repro.resilience.guard import SolverGuard
            guard = SolverGuard.from_options(opt)
        return cls(guard=guard, cancel=cancel, **{
            knob: getattr(opt, knob) for knob in (
                "abft_interval", "abft_tolerance", "replace_interval",
                "replace_adaptive", "replace_tolerance", "stagnation_window")})

    def warmup(self) -> "Defences":
        """For an eigenvalue warm-up phase: replacement and the stagnation
        window off (a short fixed budget whose coefficients must be the
        plain recurrence's)."""
        return replace(self, replace_interval=0, stagnation_window=0)

    def watch(self, state, op, solver: str) -> "Defences":
        """A copy bound to one recurrence: fresh stagnation window and
        replacer, ready for the hooks below."""
        from repro.observe.trace import tracer_of
        w = replace(self)
        w.state, w.op, w.solver, w.tracer = state, op, solver, tracer_of(op)
        w.breakdown = BreakdownGuard(
            solver, stagnation_window=self.stagnation_window)
        w.replacer = None
        if self.replace_interval:
            w.replacer = ResidualReplacer(
                self.replace_interval, dtype=str(op.dtype),
                adaptive=self.replace_adaptive,
                tolerance=self.replace_tolerance)
        return w

    # -- iteration start ---------------------------------------------------------

    def boundary(self) -> None:
        """Cancellation: before the iteration issues any communication,
        and outside its span."""
        if self.cancel is not None:
            self.cancel.check(self.state.iterations)

    def begin(self) -> None:
        """Stamp the iteration into the fault log; checkpoint when due."""
        if self.guard is not None:
            self.guard.begin(self.state.iterations)
            if self.guard.due(self.state.iterations):
                self.checkpoint()

    def checkpoint(self) -> None:
        with self.tracer.span("checkpoint", self.solver):
            fields, scalars = self.state.snapshot()
            self.guard.save(self.state.iterations, fields=fields,
                            scalars=scalars)

    # -- screening hooks: False = proceed, True = rewound, or raise --------------

    def _rewind(self, reason: str) -> bool:
        """Restore the guard's last checkpoint and replay from there (the
        fault stream has moved on, so the replay sees clean traffic)."""
        with self.tracer.span("recover", self.solver):
            snap = self.guard.rollback(reason)
            self.state.restore(snap.iteration, snap.scalars)
            self.breakdown.reset()
        return True

    def curvature(self, pw: float) -> bool:
        """``<p, Ap>`` finite *and* positive (``pw <= 0`` is False for NaN,
        which would wave a poisoned reduction through)."""
        if self.guard is not None and not (math.isfinite(pw) and pw > 0.0):
            return self._rewind(f"<p, Ap> = {pw:.3e}")
        self.breakdown.curvature(pw, self.state.iterations)
        return False

    def residual(self) -> bool:
        norm = self.state.res_norm
        if self.guard is not None and not self.guard.healthy(norm):
            return self._rewind(f"residual norm {norm:.3e}")
        self.breakdown.residual(norm, self.state.iterations)
        return False

    def coefficient(self, beta: float) -> bool:
        """A corrupted ``(rz, rr)`` reduction poisons ``beta`` before the
        residual norm: rewind now, not one matvec of NaNs later."""
        if self.guard is not None and not math.isfinite(beta):
            return self._rewind(f"beta = {beta!r}")
        self.breakdown.coefficient("beta", beta, self.state.iterations)
        return False

    def verify(self, b, threshold: float) -> bool:
        """Check the recurrence against the true residual ``b - A x``.

        Recomputed once (into the state's scratch ``w``) when the ABFT
        replay is due or a replacement check is — scheduled, or forced
        because the recurrence claims convergence: false convergence is
        the signature failure of a drifted recurrence.  The extra exchange
        and reductions run under the recovery scope (ABFT due) or the
        replacement scope, so first-attempt contract counts stay exact;
        every decision comes from globally-reduced scalars, so every rank
        takes the same branch.
        """
        st, op = self.state, self.op
        abft = (self.abft_interval > 0
                and st.iterations % self.abft_interval == 0)
        replacing = self.replacer is not None and (
            self.replacer.due(st.iterations) or st.res_norm <= threshold)
        if not (abft or replacing):
            return False
        if replacing:
            self.replacer.update_condition(st.alphas, st.betas)
        span, scope = ((("recover", "abft_replay"), recovery_scope) if abft
                       else (("replace", self.solver), replacement_scope))
        with self.tracer.span(*span), \
                scope(op.events, getattr(op.comm, "events", None)):
            op.residual(b, st.x, out=st.w)
            (true_rr,) = op.dots([(st.w, st.w)])
            true_norm = residual_norm(true_rr)
            drift = abs(true_norm - st.res_norm)
            corrupt = abft and drift > self.abft_tolerance * st.reference
            if replacing and not corrupt and self.replacer.observe(
                    drift, max(true_norm, st.res_norm), st.iterations):
                st.splice(true_rr)
                self.breakdown.reset()
        if not corrupt:
            return False
        reason = (f"ABFT replay: true residual {true_norm:.6e} vs recurrence "
                  f"{st.res_norm:.6e} at iteration {st.iterations}")
        if self.guard is None:
            raise ConvergenceError(f"silent corruption detected — {reason}")
        return self._rewind(reason)
