"""ULFM-style rank-loss recovery over the thread SPMD world.

When a :class:`~repro.resilience.faults.CrashWindow` outlasts the retry
budget, the resilient stack cannot hide it: the failed rank's operations
keep raising until the whole world aborts with a
:class:`~repro.utils.errors.CommunicationError`.  Real ULFM applications
survive this by *shrinking* the communicator, agreeing on the failure,
respawning a replacement process, rebuilding its state from checkpoints,
and continuing.  :func:`~repro.resilience.runner.run_resilient` implements
that protocol for the in-process world when ``SolverOptions.recovery`` is
set (deck ``tl_enable_recovery``), where "respawn" means relaunching the
SPMD run with the failed rank's hardware replaced:

1. **detect** — the resilient stack escalates the unrecoverable crash as
   a ``CommunicationError`` that reaches the launcher (every surviving
   rank is aborted by the thread world, exactly like an MPI job kill);
2. **agree** — the relaunched ranks vote on the resume point with a
   min-allreduce over their durable shard iterations (under the recovery
   scope, so contract counts stay clean) — the in-process analogue of
   ULFM's agreement on the failed-process set;
3. **respawn** — the failed rank's crash windows are removed from the
   fault plan (the replacement runs on fresh hardware; everything else in
   the plan — other ranks' windows, all probabilistic rules — still
   applies) and the world is relaunched at full size;
4. **rebuild** — each rank restores its subdomain solver state from its
   last durable guard shard and refreshes halos from its neighbours, then
   the solve resumes from the agreed collective checkpoint instead of
   iteration 0.

The per-rank durable shards are written by the
:class:`~repro.resilience.guard.SolverGuard` (``store=`` a
:class:`~repro.resilience.checkpoint.SolverCheckpointStore`), so the guard's
last collective checkpoint is exactly what recovery resumes from.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.resilience.faults import FaultPlan


@dataclass(frozen=True)
class RecoveryEvent:
    """One shrink/respawn recovery performed by a recovering
    :func:`~repro.resilience.runner.run_resilient`."""

    attempt: int        #: which solve attempt failed (0 = first)
    failed_rank: int    #: rank whose crash window outlasted the retries
    window_start: int   #: op index where that window opened
    detail: str = ""

    def __str__(self) -> str:
        return (f"[recovery {self.attempt}] rank {self.failed_rank} lost "
                f"at op {self.window_start}: {self.detail}")


def fatal_window(plan: FaultPlan, max_attempts: int):
    """The earliest crash window the retry budget cannot absorb, if any."""
    fatal = [w for w in plan.crashes if w.length >= max_attempts]
    if not fatal:
        return None
    return min(fatal, key=lambda w: (w.start, w.rank))


def drop_rank_windows(plan: FaultPlan, rank: int) -> FaultPlan:
    """The plan after replacing ``rank``'s hardware (its windows removed)."""
    return dataclasses.replace(
        plan, crashes=tuple(w for w in plan.crashes if w.rank != rank))
