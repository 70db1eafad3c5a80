"""Event accounting used to build communication/computation profiles.

An :class:`EventLog` aggregates counts and payload sizes of the logical events
a solver emits while running (halo exchanges by depth, global reductions,
stencil applications with cell counts, ...).  The performance model in
:mod:`repro.perfmodel` consumes these profiles to predict time-to-solution on
the paper's machines; the test-suite uses them to verify the analytic
per-iteration communication formulas against what the solvers actually do.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

#: Kind under which events recorded inside a recovery scope are re-bucketed.
#: Recovery work (checkpoint restores, failure votes, halo refreshes, ABFT
#: residual replays) performs real communication, but the per-iteration
#: ``COMM_CONTRACT`` verification must keep seeing first-attempt counts only —
#: so while a log is inside :func:`recovery_scope`, every ``record(kind, key)``
#: lands in ``(RECOVERY_KIND, kind)`` instead of ``(kind, key)``.
RECOVERY_KIND = "comm_recovery"

#: Kind under which numerical-robustness traffic is re-bucketed: residual
#: replacement checks/splices and iterative-refinement defect computations
#: (:mod:`repro.numerics`) recompute ``b - A x`` and re-reduce norms on top
#: of the solver's per-iteration budget.  Like recovery traffic, it is real
#: communication that must not pollute the first-attempt ``COMM_CONTRACT``
#: counts — it gets its own event kind so profiles and the stability sweep
#: can still account for it separately.
REPLACEMENT_KIND = "comm_replacement"


@dataclass
class EventLog:
    """Aggregated counters for logical solver/communication events.

    Events are identified by a ``kind`` string plus an optional hashable
    ``key`` refining it (e.g. ``("halo_exchange", depth)``).  Each event can
    carry additive payload quantities (``bytes=...``, ``cells=...``) which are
    accumulated per ``(kind, key)`` bucket.
    """

    counts: Counter = field(default_factory=Counter)
    quantities: dict = field(default_factory=dict)
    _recovery_depth: int = field(default=0, repr=False, compare=False)
    _replacement_depth: int = field(default=0, repr=False, compare=False)

    def record(self, kind: str, key: Any = None, n: int = 1, **amounts: float) -> None:
        """Record ``n`` occurrences of an event with additive payloads.

        Recovery scope takes precedence over replacement scope when both
        are active (a rollback triggered *by* a replacement check is
        recovery work).
        """
        if self._recovery_depth and kind != RECOVERY_KIND:
            kind, key = RECOVERY_KIND, kind
        elif self._replacement_depth and kind not in (RECOVERY_KIND,
                                                      REPLACEMENT_KIND):
            kind, key = REPLACEMENT_KIND, kind
        bucket = (kind, key)
        self.counts[bucket] += n
        if amounts:
            q = self.quantities.get(bucket)
            if q is None:
                q = self.quantities[bucket] = Counter()
            for name, value in amounts.items():
                q[name] += value

    def count(self, kind: str, key: Any = None) -> int:
        """Number of recorded events for ``(kind, key)``."""
        return self.counts.get((kind, key), 0)

    def count_kind(self, kind: str) -> int:
        """Total events of ``kind`` across all keys."""
        return sum(n for (k, _key), n in self.counts.items() if k == kind)

    def total(self, kind: str, amount: str, key: Any = None) -> float:
        """Accumulated payload ``amount`` for ``(kind, key)``."""
        if key is not None:
            return self.quantities.get((kind, key), {}).get(amount, 0.0)
        return sum(
            q.get(amount, 0.0)
            for (k, _key), q in self.quantities.items()
            if k == kind
        )

    def recovery_count(self, kind: str | None = None) -> int:
        """Events rerouted into the recovery bucket (optionally one kind)."""
        if kind is None:
            return self.count_kind(RECOVERY_KIND)
        return self.count(RECOVERY_KIND, kind)

    def replacement_count(self, kind: str | None = None) -> int:
        """Events rerouted into the replacement bucket (optionally one kind)."""
        if kind is None:
            return self.count_kind(REPLACEMENT_KIND)
        return self.count(REPLACEMENT_KIND, kind)

    def keys_for(self, kind: str) -> list:
        """All refinement keys observed for ``kind``."""
        return sorted(
            {key for (k, key) in self.counts if k == kind},
            key=lambda key: (key is None, key),
        )

    def merge(self, other: "EventLog") -> "EventLog":
        """Fold another log's counters into this one (returns self)."""
        self.counts.update(other.counts)
        for bucket, q in other.quantities.items():
            self.quantities.setdefault(bucket, Counter()).update(q)
        return self

    def clear(self) -> None:
        self.counts.clear()
        self.quantities.clear()

    def as_dict(self) -> Mapping[tuple, int]:
        """Snapshot of the raw counters (for reporting/tests)."""
        return dict(self.counts)

    @staticmethod
    def merged(logs: Iterable["EventLog"]) -> "EventLog":
        """Combine several rank-local logs into one aggregate log."""
        out = EventLog()
        for log in logs:
            out.merge(log)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        rows = ", ".join(f"{k}:{v}" for k, v in sorted(self.counts.items(), key=str))
        return f"EventLog({rows})"


@contextmanager
def _rerouted(depth_attr: str, logs):
    """Bump ``depth_attr`` on each distinct non-``None`` log for the body."""
    unique = list({id(log): log for log in logs if log is not None}.values())
    for log in unique:
        setattr(log, depth_attr, getattr(log, depth_attr) + 1)
    try:
        yield
    finally:
        for log in unique:
            setattr(log, depth_attr, getattr(log, depth_attr) - 1)


def recovery_scope(*logs: "EventLog | None"):
    """Enter the recovery scope of several logs at once.

    ``None`` entries and duplicates (the same log reachable through two
    wrappers) are tolerated, so call sites can pass every log they can see
    without worrying about aliasing::

        with recovery_scope(op.events, getattr(comm, "events", None)):
            exchanger.exchange([x], depth=1)
    """
    return _rerouted("_recovery_depth", logs)


def replacement_scope(*logs: "EventLog | None"):
    """Enter the replacement scope of several logs at once.

    The :mod:`repro.numerics` analogue of :func:`recovery_scope`: while
    active, events land under :data:`REPLACEMENT_KIND` so residual
    replacement / iterative refinement traffic stays out of the
    first-attempt ``COMM_CONTRACT`` counts.  ``None`` entries and
    duplicates are tolerated exactly as for :func:`recovery_scope`.
    """
    return _rerouted("_replacement_depth", logs)
