"""Chaos campaign table: the recovery-SLO ledger as text.

``repro chaos`` runs a pinned-seed :func:`repro.resilience.chaos.
run_campaign`, prints :func:`render`'s per-fault-class SLO table and
writes the ledger as ``CHAOS_<n>.json`` into a results directory (``<n>``
is the next free index, so successive campaigns never clobber each
other's ledgers).  Minimized fixtures for any oracle failure land next
to the ledger under ``fixtures/``.

Everything in the ledger derives from seeded draws and virtual clocks —
two runs at the same seed write byte-identical JSON (the CI ``chaos``
job and ``tests/test_chaos.py`` both hold that invariant).
"""

from __future__ import annotations

from repro.resilience.chaos import ChaosCampaignResult


def render(result: ChaosCampaignResult) -> str:
    """Human-readable SLO ledger table."""
    lines = [f"== chaos campaign: seed={result.seed} n={result.n} "
             f"trials={len(result.results)} "
             f"solvers={','.join(result.solvers)} =="]
    lines.append(f"  {'class':<11} {'trials':>6} {'conv':>5} {'fail':>5} "
                 f"{'abort':>5} {'rate':>6} {'extra':>7} {'retries':>7} "
                 f"{'vtime_s':>8}")
    for cls, s in sorted(result.class_stats().items()):
        lines.append(
            f"  {cls:<11} {s['trials']:>6} {s['converged']:>5} "
            f"{s['failed']:>5} {s['aborted']:>5} "
            f"{s['recovery_rate']:>6.3f} {s['mean_extra_iterations']:>7.1f} "
            f"{s['retries']:>7} {s['virtual_time_s']:>8.3f}")
    for i, v in result.oracle_violations:
        lines.append(f"  ORACLE trial {i}: {v}")
    for v in result.budget_violations():
        lines.append(f"  BUDGET {v}")
    lines.append("  PASS" if result.passed else "  FAIL")
    return "\n".join(lines)
