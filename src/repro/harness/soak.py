"""Soak summary: kill/restart cycles under fault storms, as text.

``repro soak`` runs :func:`repro.resilience.chaos.run_soak`: each cycle
relaunches the SPMD world, restores from the newest durable checkpoint
and advances under a seeded transient-fault storm; the final temperature
must be bit-identical to one uninterrupted fault-free run.  The report
is written as ``SOAK_<n>.json`` next to the checkpoints.
"""

from __future__ import annotations

from repro.resilience.chaos import SoakReport


def render(report: SoakReport) -> str:
    """Human-readable soak summary."""
    lines = [f"== soak: seed={report.seed} n={report.n} "
             f"ranks={report.nranks} cycles={len(report.cycles)} =="]
    for c in report.cycles:
        lines.append(
            f"  cycle {c.cycle}: {c.steps} step(s), resumed from step "
            f"{c.restored_step}, {c.faults} fault(s), {c.retries} "
            f"retrie(s), {c.virtual_time_s:.3f}s virtual")
    lines.append(f"  final mean T = {report.final_mean_temperature:.6f}, "
                 f"bit-identical to fault-free: {report.bit_identical}")
    for v in report.violations:
        lines.append(f"  VIOLATION: {v}")
    lines.append("  PASS" if report.passed else "  FAIL")
    return "\n".join(lines)
