"""Solver-level fault detection and recovery.

A :class:`SolverGuard` gives an iterative solver three capabilities:

- **health checks** — each iteration's residual (or any scalar the
  recurrence depends on) is screened for NaN/Inf and for divergence
  relative to the best norm seen so far, catching both corrupted
  reductions and recurrences knocked off course by perturbed halos;
- **checkpoints** — every ``checkpoint_interval`` iterations the solver
  hands the guard its live state (fields plus recurrence scalars); the
  guard keeps deep copies in memory;
- **rollback** — on an unhealthy iteration the solver restores the last
  checkpoint and resumes from there, up to ``max_rollbacks`` times, after
  which the guard raises :class:`~repro.utils.errors.ConvergenceError`
  (persistent corruption is not something restarts can fix).

The guard is deliberately passive: it never touches the communicator and
performs no reductions of its own, so it cannot change a solver's
COMM_CONTRACT.  All of its decisions are functions of quantities the
solver already computed from *global* reductions (the residual norm), so
under SPMD every rank takes the same save/rollback decision at the same
iteration — no extra synchronisation needed.

It also carries the :class:`~repro.resilience.faults.IterationCell` that
timestamps injected faults with the solver iteration, tying the fault log
to the convergence history.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.resilience.faults import IterationCell
from repro.utils.errors import ConvergenceError
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class GuardEvent:
    """One guard decision (checkpoint taken, rollback performed)."""

    iteration: int
    action: str          # "checkpoint" | "rollback"
    detail: str = ""

    def __str__(self) -> str:
        return f"[guard {self.action}] iter {self.iteration}: {self.detail}"


@dataclass(frozen=True)
class Snapshot:
    """What :meth:`SolverGuard.rollback` hands back to the solver.

    Field *data* has already been copied back into the live field objects
    by the time the solver sees this; the solver only needs to reinstate
    its recurrence scalars and loop counters from ``scalars``.
    """

    iteration: int
    scalars: dict


class SolverGuard:
    """In-memory checkpoint/rollback controller for iterative solvers.

    Parameters
    ----------
    checkpoint_interval:
        Take a checkpoint every this many iterations (iteration 0 is
        always checkpointed, so there is always a state to roll back to).
    divergence_ratio:
        An iteration is unhealthy when its residual norm exceeds
        ``divergence_ratio`` times the best norm seen so far — the
        "quietly blowing up" signature of corrupted spectrum bounds or a
        perturbed direction vector, long before the norm overflows.
    max_rollbacks:
        Budget of *consecutive* rollbacks without an intervening healthy
        iteration; exceeding it raises :class:`ConvergenceError` (the
        fault is evidently not transient).  A healthy iteration resets
        the budget — distinct transient faults spread over a long solve
        are each recoverable.  A hard ceiling of ``10 * max_rollbacks``
        (at least 100) total rollbacks guards against pathological
        heal/corrupt alternation.
    iteration:
        Shared :class:`IterationCell` for fault-event timestamping; a
        private cell is created when omitted.
    store:
        Optional durable backing store (a
        :class:`~repro.resilience.checkpoint.SolverCheckpointStore`); when
        given, every :meth:`save` also persists the snapshot atomically to
        disk, so a killed process can resume from the guard's last
        collective checkpoint instead of iteration 0.
    """

    def __init__(self, checkpoint_interval: int = 10,
                 divergence_ratio: float = 1e4,
                 max_rollbacks: int = 3,
                 iteration: IterationCell | None = None,
                 store=None):
        check_positive("checkpoint_interval", checkpoint_interval)
        check_positive("divergence_ratio", divergence_ratio)
        check_positive("max_rollbacks", max_rollbacks, allow_zero=True)
        self.interval = checkpoint_interval
        self.divergence_ratio = divergence_ratio
        self.max_rollbacks = max_rollbacks
        self.cell = iteration if iteration is not None else IterationCell()
        self.store = store
        self.checkpoints = 0
        self.rollbacks = 0
        self._consecutive = 0
        self.log: list[GuardEvent] = []
        self._best = float("inf")
        self._saved_best = float("inf")
        self._fields: dict | None = None   # name -> (field object, data copy)
        self._scalars: dict | None = None
        self._iteration = -1

    @classmethod
    def from_options(cls, options, iteration: IterationCell | None = None,
                     store=None) -> "SolverGuard":
        """The guard ``options`` (``guard_interval > 0``) asks for — the
        one place the three ``guard_*`` knobs become a guard.  The rank
        program hands in its stack's iteration cell and the durable
        store; a bare ``solve_linear`` has neither."""
        return cls(checkpoint_interval=options.guard_interval,
                   divergence_ratio=options.guard_divergence_ratio,
                   max_rollbacks=options.guard_max_rollbacks,
                   iteration=iteration, store=store)

    # -- iteration tracking ----------------------------------------------------

    def begin(self, iteration: int) -> None:
        """Mark the solver iteration (stamps subsequent fault events)."""
        self.cell.value = iteration

    def due(self, iteration: int) -> bool:
        """Should the solver checkpoint now?"""
        return self._fields is None or iteration % self.interval == 0

    # -- checkpointing ---------------------------------------------------------

    def save(self, iteration: int, fields: dict, scalars: dict) -> None:
        """Deep-copy the solver state.

        ``fields`` maps names to live field objects (their ``.data``
        arrays are copied here, keeping allocation out of the solver's
        hot loop); ``scalars`` is copied shallowly and returned verbatim
        on rollback.
        """
        self._fields = {name: (f, np.array(f.data, copy=True))
                        for name, f in fields.items()}
        self._scalars = dict(scalars)
        self._iteration = iteration
        self._saved_best = self._best
        if self.store is not None:
            self.store.save(
                iteration,
                {name: copy for name, (_f, copy) in self._fields.items()},
                self._scalars)
        self.checkpoints += 1
        self.log.append(GuardEvent(iteration, "checkpoint",
                                   f"{len(fields)} field(s), "
                                   f"{len(scalars)} scalar(s)"))

    # -- health + recovery -----------------------------------------------------

    def healthy(self, res_norm: float) -> bool:
        """Screen one iteration's residual norm.

        Returns ``False`` for NaN/Inf or divergence beyond
        ``divergence_ratio`` × best-so-far; otherwise records the norm
        and returns ``True``.
        """
        if not np.isfinite(res_norm):
            return False
        if res_norm > self.divergence_ratio * self._best:
            return False
        if res_norm < self._best:
            self._best = res_norm
        self._consecutive = 0
        return True

    def rollback(self, reason: str = "") -> Snapshot:
        """Restore the last checkpoint into the live fields.

        Returns a :class:`Snapshot` with the checkpoint's iteration
        number and scalars; raises :class:`ConvergenceError` once the
        rollback budget is spent (or if no checkpoint was ever taken).
        """
        if self._fields is None:
            raise ConvergenceError(
                "solver state is corrupt and no checkpoint exists to roll "
                f"back to ({reason or 'unhealthy iteration'})")
        ceiling = max(100, 10 * self.max_rollbacks)
        if (self._consecutive >= self.max_rollbacks
                or self.rollbacks >= ceiling):
            raise ConvergenceError(
                f"rollback budget exhausted ({self.max_rollbacks} "
                f"consecutive, {self.rollbacks} total): state still "
                f"corrupt — {reason or 'persistent fault'}")
        self.rollbacks += 1
        self._consecutive += 1
        for f, saved in self._fields.values():
            f.data[...] = saved
        # The best-so-far norm is part of the rewound timeline: iterations
        # re-executed from the checkpoint legitimately sit above any best
        # achieved after it, and must not trip the divergence screen.
        self._best = self._saved_best
        self.log.append(GuardEvent(
            self.cell.value, "rollback",
            f"restored iteration {self._iteration}"
            + (f" — {reason}" if reason else "")))
        return Snapshot(iteration=self._iteration,
                        scalars=dict(self._scalars))
