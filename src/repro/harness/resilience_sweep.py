"""Resilience study: fault rate x solver through the injection stack.

Sweeps the transient-fault probability over the solver family on the small
crooked-pipe benchmark, every run through the canonical resilient stack
(:func:`~repro.resilience.runner.build_resilient_comm`) with the solver
guard enabled — answering "how much injected communication failure can each
solver absorb before it stops converging, and at what iteration cost?".

Faults are drawn deterministically from the plan seed, so the whole sweep
is reproducible: rerunning with the same seed yields identical fault logs,
retry counts and iteration counts (``tests/test_resilience.py`` holds the
regression).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.resilience import FaultPlan, FaultRule, ResilienceReport, run_resilient
from repro.solvers import SolverOptions

#: Per-operation transient fault probabilities swept (0 = fault-free control).
RATES = (0.0, 0.005, 0.01, 0.02)

#: Solver configurations studied; all run with the guard checkpointing every
#: 5 iterations and graceful degradation on.
SOLVERS = (
    ("cg", SolverOptions(solver="cg", eps=1e-10, max_iters=600,
                         guard_interval=5)),
    ("ppcg", SolverOptions(solver="ppcg", eps=1e-10, max_iters=200,
                           ppcg_inner_steps=4, eigen_warmup_iters=10,
                           guard_interval=5, degrade=True)),
    ("cppcg[depth=4]", SolverOptions(solver="ppcg", eps=1e-10, max_iters=200,
                                     ppcg_inner_steps=8, halo_depth=4,
                                     eigen_warmup_iters=10,
                                     guard_interval=5, degrade=True)),
    ("chebyshev", SolverOptions(solver="chebyshev", eps=1e-10, max_iters=600,
                                eigen_warmup_iters=10,
                                guard_interval=5, degrade=True)),
)


def fault_plan(rate: float, seed: int) -> FaultPlan:
    """The sweep's fault mix at one probability.

    Transient errors on every op class at ``rate``, plus corrupted
    allreduce payloads (NaN) at ``rate / 2`` — the mix the acceptance
    criteria exercise: retried wire faults *and* guard-recovered bad
    reductions.
    """
    if rate <= 0.0:
        return FaultPlan.disabled()
    return FaultPlan(seed=seed, rules=(
        FaultRule(mode="error", probability=rate,
                  ops=("send", "recv", "allreduce")),
        FaultRule(mode="corrupt_nan", probability=rate / 2,
                  ops=("allreduce",)),
    ))


@dataclass
class ResilienceSweepResult:
    """All reports of one sweep, keyed ``(solver_name, rate)``."""

    n: int
    seed: int
    rates: tuple[float, ...]
    solvers: tuple[str, ...]
    reports: dict = field(default_factory=dict)

    def report(self, solver: str, rate: float) -> ResilienceReport:
        return self.reports[(solver, rate)]

    def as_dict(self) -> dict:
        """JSON-ready sweep output (schema ``repro.resilience_sweep/v2``).

        Top level: ``schema``, ``n``, ``seed``, ``rates``, ``solvers``
        and ``cells`` — one entry per ``(solver, rate)`` in sweep order
        with keys ``solver``, ``rate``, ``converged``, ``iterations``,
        ``relative_residual``, ``faults``, ``retries``, ``rollbacks``,
        ``checkpoints``, ``recoveries``, ``integrity_detections``,
        ``integrity_repairs``, ``degraded``, ``virtual_time_s``.  v2 adds
        the recovery/integrity counters (rank-loss respawns and checksum
        detections/repairs; zero for the plain stack).  The test-suite
        cross-checks these cells against an independent
        :class:`~repro.observe.metrics.MetricsRegistry` oracle.
        """
        cells = []
        for name in self.solvers:
            for rate in self.rates:
                r = self.report(name, rate)
                cells.append({
                    "solver": name,
                    "rate": rate,
                    "converged": r.converged,
                    "iterations": r.iterations,
                    "relative_residual": r.relative_residual,
                    "faults": len(r.fault_events),
                    "retries": r.retries,
                    "rollbacks": r.rollbacks,
                    "checkpoints": r.checkpoints,
                    "recoveries": r.recoveries,
                    "integrity_detections": r.integrity_detections,
                    "integrity_repairs": r.integrity_repairs,
                    "degraded": r.degraded,
                    "virtual_time_s": r.virtual_time_s,
                })
        return {
            "schema": "repro.resilience_sweep/v2",
            "n": self.n,
            "seed": self.seed,
            "rates": list(self.rates),
            "solvers": list(self.solvers),
            "cells": cells,
        }

    @property
    def all_converged(self) -> bool:
        """True when every (solver, rate) cell converged."""
        return all(r.converged for r in self.reports.values())

    @property
    def exit_code(self) -> int:
        """Process exit status: 0 all converged, 1 otherwise."""
        return 0 if self.all_converged else 1


def run_resilience_sweep(n: int = 24,
                         seed: int = 7,
                         rates: tuple[float, ...] = RATES,
                         size: int = 1,
                         solvers=SOLVERS) -> ResilienceSweepResult:
    """Run every solver configuration at every fault rate.

    ``solvers`` is a sequence of ``(name, SolverOptions)`` pairs
    (default: the full :data:`SOLVERS` study) — tests pass a subset to
    keep runtimes short.  Options with ``integrity`` on thread the
    :class:`~repro.resilience.integrity.ChecksumComm` layer into their
    runs' stacks, surfacing checksum detections/repairs in the cells.
    """
    result = ResilienceSweepResult(
        n=n, seed=seed, rates=tuple(rates),
        solvers=tuple(name for name, _ in solvers))
    for name, options in solvers:
        for rate in rates:
            result.reports[(name, rate)] = run_resilient(
                options, fault_plan(rate, seed), n=n, size=size)
    return result


def render(sweep: ResilienceSweepResult) -> str:
    """Human-readable sweep table, closed by a ``FAILED:`` line naming
    every configuration that did not converge."""
    lines = [f"== resilience sweep: crooked pipe n={sweep.n}, "
             f"seed={sweep.seed} =="]
    for name in sweep.solvers:
        lines.append(f"  {name}:")
        for rate in sweep.rates:
            r = sweep.report(name, rate)
            mark = "ok " if r.converged else "FAIL"
            lines.append(
                f"    rate={rate:<6g} [{mark}] {r.iterations:4d} iters  "
                f"rel res {r.relative_residual:.2e}  "
                f"{len(r.fault_events):3d} fault(s) "
                f"{r.retries:3d} retrie(s) {r.rollbacks:2d} rollback(s) "
                f"{r.recoveries:2d} recover(ies)"
                + ("  degraded" if r.degraded else ""))
    if not sweep.all_converged:
        failed = [(name, rate) for (name, rate), r in sweep.reports.items()
                  if not r.converged]
        lines.append(f"FAILED: {len(failed)} configuration(s) did not "
                     "converge: "
                     + ", ".join(f"{n}@{r:g}" for n, r in failed))
    return "\n".join(lines)
