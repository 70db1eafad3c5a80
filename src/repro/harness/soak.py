"""Soak driver: kill/restart cycles under fault storms, from the CLI.

Thin harness over :func:`repro.resilience.chaos.run_soak`: each cycle
relaunches the SPMD world, restores from the newest durable checkpoint
and advances under a seeded transient-fault storm; the final temperature
must be bit-identical to one uninterrupted fault-free run.  The report
is written as ``SOAK_<n>.json`` next to the checkpoints.
"""

from __future__ import annotations

from pathlib import Path

from repro.harness.ledger import write_ledger
from repro.resilience.chaos import SoakReport, run_soak

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


def main(argv: list[str] | None = None) -> int:
    """Run a soak; exit 1 when any cycle violated the oracle."""
    import argparse

    parser = argparse.ArgumentParser(
        description="soak: periodic fault storms and kill/restart cycles")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--cycles", type=int, default=3)
    parser.add_argument("--steps-per-cycle", type=int, default=2)
    parser.add_argument("--n", type=int, default=16, help="mesh size")
    parser.add_argument("--ranks", type=int, default=2,
                        help="SPMD world size (thread ranks)")
    parser.add_argument("--out", default="results/soak",
                        help="directory for checkpoints + SOAK_<n>.json")
    args = parser.parse_args(argv)
    out = Path(args.out)
    report = run_soak(seed=args.seed, cycles=args.cycles,
                      steps_per_cycle=args.steps_per_cycle, n=args.n,
                      nranks=args.ranks,
                      checkpoint_root=out / "checkpoints")
    print(render(report))
    path = write_ledger(report.as_dict(), out, "SOAK")
    print(f"report written to {path}")
    return report.exit_code


if __name__ == "__main__":
    import sys
    sys.exit(main())
