"""Numerical-stability study: solver x dtype x depth over the battery.

Sweeps the solver family over the ill-conditioned crooked-pipe battery
(:func:`~repro.physics.crooked_pipe_jump`, conductivity jumps 1e4-1e10),
running every ``(solver, dtype, depth)`` cell twice:

- **unprotected** — the plain recurrence at the requested working
  precision, with the true residual ``b - A x`` measured once after the
  solve.  These cells demonstrate the hazard: in float32 the recurrence
  residual keeps shrinking below the tolerance while the true residual
  stalls ~2 orders of magnitude higher — the solver *falsely converges*.
- **protected** — the :mod:`repro.numerics` stack: residual replacement
  with condition-aware cadence (cg/ppcg), the breakdown guard's
  stagnation window, and (for float32) mixed-precision iterative
  refinement that recovers float64 accuracy or escalates with a
  structured :class:`~repro.numerics.refine.PrecisionDiagnosis`.

Every decision in a run is taken from globally-reduced scalars and the
sweep uses no wall clocks, so rerunning it produces byte-identical
rendered output and ``as_dict()`` payloads (the determinism invariant
``tests/test_stability_sweep.py`` locks down).

The sweep passes (exit 0) when every *protected* cell either converges
with its true relative residual at the tolerance (10x slack) or refuses
with an escalation diagnosis; unprotected cells are reported — including
their false-convergence count — but never gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.solvers import SolverOptions
from repro.testing import crooked_pipe_jump_system, distributed_solve
from repro.utils.errors import ConvergenceError

#: Conductivity jumps swept by default (subset of the full
#: :data:`~repro.physics.STABILITY_JUMPS` battery to keep the smoke
#: target quick; ``repro stability --jumps`` widens it).
JUMPS = (1e4, 1e8)

#: Working precisions studied.
DTYPES = ("float64", "float32")

#: ``(label, solver, halo_depth)`` cells: the paper's depth-1 baselines
#: plus the deep matrix-powers configuration whose 16 stacked stencil
#: applications per inner step amplify recurrence drift.
CELLS = (
    ("cg[depth=1]", "cg", 1),
    ("chebyshev[depth=1]", "chebyshev", 1),
    ("cppcg[depth=16]", "ppcg", 16),
)

#: Relative-residual slack granted on the convergence check of protected
#: cells (the post-solve true residual is measured one splice after the
#: tolerance test).
PASS_SLACK = 10.0

#: Replacement cadence (base interval; the condition-aware policy
#: shrinks it on badly conditioned cells).
REPLACE_INTERVAL = 10


def cell_options(solver: str, depth: int, dtype: str, protected: bool,
                 eps: float, max_iters: int) -> SolverOptions:
    """The :class:`SolverOptions` of one sweep cell.

    Protected cells stack every :mod:`repro.numerics` defence the solver
    supports: residual replacement (cg/ppcg only — it is a CG-recurrence
    repair), the stagnation window, and iterative refinement whenever the
    working precision is not float64.
    """
    replacement = protected and solver in ("cg", "ppcg")
    return SolverOptions(
        solver=solver,
        eps=eps,
        max_iters=max_iters,
        ppcg_inner_steps=16 if solver == "ppcg" else 10,
        halo_depth=depth,
        eigen_warmup_iters=30,
        adaptive=solver == "ppcg",
        degrade=solver in ("ppcg", "chebyshev"),
        dtype=dtype,
        refine=protected and dtype != "float64",
        replace_interval=REPLACE_INTERVAL if replacement else 0,
        replace_adaptive=replacement,
        stagnation_window=60 if protected else 0,
        true_residual=True,
    )


@dataclass
class StabilityCell:
    """Outcome of one ``(solver, dtype, jump, protected)`` run.

    Residuals are relative to ``||b||`` (the same reference for every
    cell, unlike each solver's phase-internal reference), so cells are
    directly comparable.  ``drift_orders`` is
    ``log10(true / recurrence)`` — how many orders of magnitude the
    recurrence estimate undersells the true residual by.
    """

    solver: str
    dtype: str
    depth: int
    jump: float
    protected: bool
    converged: bool = False
    iterations: int = 0
    total_iterations: int = 0
    recurrence_residual: float = math.inf
    true_residual: float = math.inf
    drift_orders: float = 0.0
    replacement_checks: int = 0
    replacement_splices: int = 0
    refinement_steps: int = 0
    escalated: bool = False
    diagnosis: str = ""
    breakdown: str = ""

    def passes(self, eps: float) -> bool:
        """Protected-cell acceptance: honest convergence or diagnosis."""
        if self.escalated and self.diagnosis:
            return True
        return self.converged and self.true_residual <= PASS_SLACK * eps

    def false_convergence(self, eps: float) -> bool:
        """Converged by the recurrence while the truth missed tolerance."""
        return self.converged and self.true_residual > PASS_SLACK * eps

    def as_dict(self) -> dict:
        return {
            "solver": self.solver,
            "dtype": self.dtype,
            "depth": self.depth,
            "jump": self.jump,
            "protected": self.protected,
            "converged": self.converged,
            "iterations": self.iterations,
            "total_iterations": self.total_iterations,
            "recurrence_residual": self.recurrence_residual,
            "true_residual": self.true_residual,
            "drift_orders": self.drift_orders,
            "replacement_checks": self.replacement_checks,
            "replacement_splices": self.replacement_splices,
            "refinement_steps": self.refinement_steps,
            "escalated": self.escalated,
            "diagnosis": self.diagnosis,
            "breakdown": self.breakdown,
        }


@dataclass
class StabilitySweepResult:
    """All cells of one sweep, keyed ``(solver, dtype, jump, protected)``."""

    n: int
    eps: float
    jumps: tuple[float, ...]
    dtypes: tuple[str, ...]
    solvers: tuple[str, ...]
    cells: dict = field(default_factory=dict)

    def cell(self, solver: str, dtype: str, jump: float,
             protected: bool) -> StabilityCell:
        return self.cells[(solver, dtype, jump, protected)]

    @property
    def protected_cells(self) -> list[StabilityCell]:
        return [c for c in self.cells.values() if c.protected]

    @property
    def all_protected_pass(self) -> bool:
        return all(c.passes(self.eps) for c in self.protected_cells)

    @property
    def false_convergences(self) -> int:
        """Unprotected cells whose recurrence lied about convergence."""
        return sum(1 for c in self.cells.values()
                   if not c.protected and c.false_convergence(self.eps))

    @property
    def exit_code(self) -> int:
        return 0 if self.all_protected_pass else 1

    def as_dict(self) -> dict:
        """JSON-ready sweep output (schema ``repro.stability_sweep/v1``).

        Top level: ``schema``, ``n``, ``eps``, ``jumps``, ``dtypes``,
        ``solvers`` and ``cells`` — one entry per run in sweep order with
        the :meth:`StabilityCell.as_dict` keys.  The test-suite
        cross-checks the cells against an independent
        :class:`~repro.observe.metrics.MetricsRegistry` oracle filled by
        :func:`~repro.observe.runner.record_stability_metrics`.
        """
        ordered = [self.cell(s, d, j, p)
                   for s in self.solvers for d in self.dtypes
                   for j in self.jumps for p in (False, True)]
        return {
            "schema": "repro.stability_sweep/v1",
            "n": self.n,
            "eps": self.eps,
            "jumps": list(self.jumps),
            "dtypes": list(self.dtypes),
            "solvers": list(self.solvers),
            "cells": [c.as_dict() for c in ordered],
        }


def _run_cell(label: str, solver: str, depth: int, dtype: str, jump: float,
              protected: bool, n: int, eps: float, max_iters: int,
              size: int) -> StabilityCell:
    grid, kxg, kyg, bg = crooked_pipe_jump_system(n, jump)
    b_norm = float(np.linalg.norm(bg))
    options = cell_options(solver, depth, dtype, protected, eps, max_iters)
    cell = StabilityCell(solver=label, dtype=dtype, depth=depth, jump=jump,
                         protected=protected)
    try:
        _, result = distributed_solve(grid, kxg, kyg, bg, options, size)
    except ConvergenceError as exc:
        # Breakdown taxonomy: the structured BreakdownError (and plain
        # convergence failures raised through it) become a reported cell,
        # not a dead sweep.
        cell.breakdown = str(exc)
        return cell
    cell.converged = result.converged
    cell.iterations = result.iterations
    cell.total_iterations = result.total_iterations
    cell.recurrence_residual = result.residual_norm / b_norm
    true_norm = result.true_residual_norm
    cell.true_residual = (true_norm / b_norm if true_norm is not None
                          else math.inf)
    if true_norm and result.residual_norm > 0.0:
        cell.drift_orders = math.log10(true_norm / result.residual_norm)
    stats = getattr(result, "replacement", None)
    if stats is not None:
        cell.replacement_checks = stats.checks
        cell.replacement_splices = stats.splices
    cell.refinement_steps = getattr(result, "refinement_steps", 0)
    diagnosis = getattr(result, "diagnosis", None)
    if diagnosis is not None:
        cell.escalated = diagnosis.escalated
        cell.diagnosis = diagnosis.summary()
    return cell


def run_stability_sweep(n: int = 24,
                        eps: float = 1e-8,
                        max_iters: int = 600,
                        jumps: tuple[float, ...] = JUMPS,
                        dtypes: tuple[str, ...] = DTYPES,
                        cells=CELLS,
                        size: int = 1) -> StabilitySweepResult:
    """Run every ``(solver, dtype, jump)`` cell, unprotected and protected.

    ``cells`` is a sequence of ``(label, solver, halo_depth)`` triples
    (default: the full :data:`CELLS` study) — tests pass a subset to keep
    runtimes short.
    """
    result = StabilitySweepResult(
        n=n, eps=eps, jumps=tuple(jumps), dtypes=tuple(dtypes),
        solvers=tuple(label for label, _, _ in cells))
    for label, solver, depth in cells:
        for dtype in dtypes:
            for jump in jumps:
                for protected in (False, True):
                    result.cells[(label, dtype, jump, protected)] = _run_cell(
                        label, solver, depth, dtype, jump, protected,
                        n, eps, max_iters, size)
    return result


def render(sweep: StabilitySweepResult) -> str:
    """Human-readable sweep table, closed by a ``FAILED:`` line naming
    every protected cell that missed its acceptance."""
    lines = [f"== stability sweep: crooked-pipe battery n={sweep.n}, "
             f"eps={sweep.eps:g} =="]
    for label in sweep.solvers:
        for dtype in sweep.dtypes:
            lines.append(f"  {label} / {dtype}:")
            for jump in sweep.jumps:
                for protected in (False, True):
                    c = sweep.cell(label, dtype, jump, protected)
                    tag = "protected  " if protected else "unprotected"
                    if c.breakdown:
                        lines.append(f"    jump={jump:<6g} {tag} "
                                     f"[BRK ] {c.breakdown}")
                        continue
                    mark = "ok " if c.converged else "FAIL"
                    if not protected and c.false_convergence(sweep.eps):
                        mark = "LIE "
                    detail = (f"    jump={jump:<6g} {tag} [{mark}] "
                              f"{c.iterations:4d} iters  "
                              f"true {c.true_residual:.2e}  "
                              f"rec {c.recurrence_residual:.2e}  "
                              f"drift {c.drift_orders:+5.1f} orders")
                    if c.replacement_checks:
                        detail += (f"  {c.replacement_splices}/"
                                   f"{c.replacement_checks} splice(s)")
                    if c.refinement_steps:
                        detail += f"  {c.refinement_steps} refine step(s)"
                    lines.append(detail)
                    if c.diagnosis:
                        lines.append(f"      diagnosis: {c.diagnosis}")
    lines.append(f"false convergences (unprotected): "
                 f"{sweep.false_convergences}")
    if not sweep.all_protected_pass:
        failed = [c for c in sweep.protected_cells if not c.passes(sweep.eps)]
        lines.append(f"FAILED: {len(failed)} protected cell(s): "
                     + ", ".join(f"{c.solver}/{c.dtype}@{c.jump:g}"
                                 for c in failed))
    return "\n".join(lines)
