"""Unified breakdown detection for the iterative solvers.

Every Krylov/relaxation loop in the tree can fail *numerically* rather than
merely stall: an indefinite (or corrupted) operator makes ``<p, Ap>``
non-positive, lost conjugacy drives ``beta`` negative, rounding turns a
residual non-finite, or the recurrence quietly stops making progress.
Before this module each solver hand-rolled a subset of these checks
(``cg_fused`` guarded curvature, plain ``cg`` did not, ``jacobi``
checked nothing); now they all share one :class:`BreakdownGuard` raising a
structured :class:`BreakdownError`.

``BreakdownError`` derives from :class:`ConvergenceError` so every existing
degradation path keeps working unchanged: PPCG's adaptive/degrade logic and
the harness sweeps already catch ``ConvergenceError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.utils.errors import ConvergenceError


def residual_norm(rr: float) -> float:
    """``sqrt(rr)``, or NaN for the negative or NaN ``rr`` of a corrupted
    reduction — decided before any square root is taken, so the guards
    that screen every norm report it, not a numpy ``RuntimeWarning``."""
    return math.sqrt(rr) if rr >= 0.0 else math.nan


class BreakdownError(ConvergenceError):
    """A solver recurrence broke down numerically.

    Carries the offending quantity so harnesses and the stability sweep can
    classify failures without parsing messages:

    Attributes
    ----------
    solver:
        Name of the solver whose recurrence broke (``cg``, ``ppcg``, ...).
    iteration:
        Outer iteration at which the breakdown was detected.
    quantity:
        Which scalar tripped the guard (``pAp``, ``beta``,
        ``residual_norm``).
    value:
        The offending value (possibly NaN/Inf).
    """

    def __init__(self, message: str, *, solver: str = "", iteration: int = 0,
                 quantity: str = "", value: float = math.nan, result=None):
        super().__init__(message, result=result)
        self.solver = solver
        self.iteration = iteration
        self.quantity = quantity
        self.value = value


@dataclass
class BreakdownGuard:
    """Per-solve breakdown checks shared by all iterative solvers.

    Parameters
    ----------
    solver:
        Solver name stamped into raised errors.
    stagnation_window:
        When positive, raise if the residual norm fails to improve by a
        relative ``stagnation_rtol`` over this many iterations.  Zero (the
        default) disables the window — CG residuals are legitimately
        non-monotonic, so stagnation detection is opt-in.
    stagnation_rtol:
        Minimum relative reduction expected across the window.
    strict:
        Enforce the *sign* of recurrence coefficients in
        :meth:`coefficient`.  Off by default: a transiently negative
        ``beta`` is routine for Chebyshev-preconditioned CG (the
        polynomial is only SPD when the estimated bounds bracket the true
        spectrum) and the recurrence recovers on its own — only
        non-finite coefficients are unconditionally fatal.
    """

    solver: str
    stagnation_window: int = 0
    stagnation_rtol: float = 1e-3
    strict: bool = False
    _recent: list = field(default_factory=list, repr=False)

    def _fail(self, iteration: int, quantity: str, value: float,
              detail: str) -> None:
        raise BreakdownError(
            f"{self.solver} breakdown: {detail} at iteration {iteration}",
            solver=self.solver, iteration=iteration, quantity=quantity,
            value=float(value))

    def curvature(self, value: float, iteration: int) -> None:
        """``<p, Ap>`` must be finite and positive for an SPD operator.

        The non-finite check runs *first*: ``NaN <= 0`` is False, which is
        exactly how an unguarded ``pw <= 0`` test lets a poisoned reduction
        slip through and silently NaN the whole recurrence.
        """
        if not math.isfinite(value):
            self._fail(iteration, "pAp", value,
                       f"<p, Ap> = {value!r} is non-finite")
        if value <= 0.0:
            self._fail(iteration, "pAp", value,
                       f"<p, Ap> = {value:.3e} <= 0 (operator not SPD?)")

    def coefficient(self, name: str, value: float, iteration: int) -> None:
        """Recurrence coefficients (``beta``) must be finite — and, in
        strict mode, non-negative."""
        if not math.isfinite(value):
            self._fail(iteration, name, value,
                       f"{name} = {value!r} is non-finite")
        if self.strict and value < 0.0:
            self._fail(iteration, name, value,
                       f"{name} = {value:.3e} < 0 (lost conjugacy?)")

    def residual(self, value: float, iteration: int) -> None:
        """Residual norms must stay finite and (windowed) decreasing."""
        if not math.isfinite(value):
            self._fail(iteration, "residual_norm", value,
                       "residual is non-finite (solver diverged)")
        if self.stagnation_window > 0:
            self._recent.append(float(value))
            if len(self._recent) > self.stagnation_window:
                oldest = self._recent.pop(0)
                if value > (1.0 - self.stagnation_rtol) * oldest:
                    self._fail(
                        iteration, "residual_norm", value,
                        f"residual stagnated across {self.stagnation_window} "
                        f"iterations ({oldest:.6e} -> {value:.6e})")

    def reset(self) -> None:
        """Clear the stagnation window (after a rollback or a splice)."""
        self._recent.clear()
