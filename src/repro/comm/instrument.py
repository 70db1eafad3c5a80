"""Transparent communicator wrapper that accounts traffic.

The performance model needs to know, per solve, how many point-to-point
messages, bytes and global reductions each configuration generates.  Wrapping
any :class:`~repro.comm.base.Communicator` in :class:`InstrumentedComm`
records those into an :class:`~repro.utils.events.EventLog` without changing
behaviour, so the same solver code runs instrumented or not.
"""

from __future__ import annotations

from collections import Counter

from repro.comm.base import Communicator, ForwardingComm, payload_bytes
from repro.utils.events import RECOVERY_KIND, EventLog

#: Event kind recorded (by :class:`~repro.resilience.retry.RetryingComm`)
#: for every *re-issued* communication attempt.  Retries are accounted
#: separately from the logical operation counts: with the canonical stack
#: ``InstrumentedComm(RetryingComm(FaultyComm(base)))`` the instrument
#: layer sees each operation exactly once no matter how many times the
#: retry layer re-issues it, so ``count_kind("allreduce")`` etc. remain
#: *first-attempt* counts and the COMM_CONTRACT verifier is unaffected by
#: legal retries.  Query retries with ``count_kind(RETRY_KIND)`` or
#: :meth:`EventWindow.retry_count`.
RETRY_KIND = "comm_retry"

__all__ = ["RETRY_KIND", "RECOVERY_KIND", "EventWindow", "InstrumentedComm"]


class EventWindow:
    """Delta view over an :class:`EventLog` between two instants.

    Opening a window snapshots the log's counters; every query then
    reports only what was recorded *since* — closing (or leaving the
    ``with`` block) freezes the deltas.  This is how the contract verifier
    (:mod:`repro.analysis.verify`) isolates per-iteration communication
    from setup cost: wrap each solve in a window and difference two runs
    of different iteration counts.

    >>> with EventWindow(comm.events) as w:
    ...     cg_solve(op, b, max_iters=10)
    >>> w.count_kind("allreduce")   # events during the window only
    """

    def __init__(self, log: EventLog):
        self.log = log
        self._start_counts = Counter(log.counts)
        self._start_quantities = {
            bucket: Counter(q) for bucket, q in log.quantities.items()}
        self._end_counts: Counter | None = None
        self._end_quantities: dict | None = None

    def close(self) -> "EventWindow":
        """Freeze the window (idempotent); returns self."""
        if self._end_counts is None:
            self._end_counts = Counter(self.log.counts)
            self._end_quantities = {
                bucket: Counter(q) for bucket, q in self.log.quantities.items()}
        return self

    def __enter__(self) -> "EventWindow":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- delta queries (EventLog-shaped) ----------------------------------------

    def _counts(self) -> Counter:
        end = self._end_counts if self._end_counts is not None \
            else self.log.counts
        return {bucket: n - self._start_counts.get(bucket, 0)
                for bucket, n in end.items()
                if n - self._start_counts.get(bucket, 0)}

    def count(self, kind: str, key=None) -> int:
        return self._counts().get((kind, key), 0)

    def count_kind(self, kind: str) -> int:
        return sum(n for (k, _key), n in self._counts().items() if k == kind)

    def total(self, kind: str, amount: str, key=None) -> float:
        end = self._end_quantities if self._end_quantities is not None \
            else self.log.quantities
        out = 0.0
        for bucket, q in end.items():
            if bucket[0] != kind or (key is not None and bucket[1] != key):
                continue
            start = self._start_quantities.get(bucket, {})
            out += q.get(amount, 0.0) - start.get(amount, 0.0)
        return out

    def retry_count(self, op: str | None = None) -> int:
        """Re-issued attempts recorded during the window (see RETRY_KIND)."""
        if op is None:
            return self.count_kind(RETRY_KIND)
        return self.count(RETRY_KIND, op)

    def recovery_count(self, kind: str | None = None) -> int:
        """Events rerouted into the recovery bucket during the window.

        Recovery-scope work (checkpoint collectives, failure votes, halo
        refreshes, ABFT replays — see
        :func:`repro.utils.events.recovery_scope`) is bucketed under
        ``(RECOVERY_KIND, original_kind)``, keeping the regular per-kind
        counts first-attempt clean just like retries.
        """
        if kind is None:
            return self.count_kind(RECOVERY_KIND)
        return self.count(RECOVERY_KIND, kind)

    def as_log(self) -> EventLog:
        """The window's deltas materialised as a standalone EventLog."""
        log = EventLog()
        for bucket, n in self._counts().items():
            log.counts[bucket] = n
        return log


class InstrumentedComm(ForwardingComm):
    """Delegates to an inner communicator while counting traffic.

    Recorded events (kind, key):

    - ``("p2p_send", tag)`` with ``bytes``
    - ``("p2p_recv", tag)`` with ``bytes``
    - ``("allreduce", op)`` with ``bytes`` (per-rank contribution size)
    - ``("bcast", None)``, ``("gather", None)``, ``("allgather", None)``,
      ``("barrier", None)``

    A :class:`~repro.observe.trace.Tracer` may be attached to additionally
    emit one timed span per operation (names mirror the event kinds).  With
    the default null tracer the span calls are no-ops that allocate nothing.
    """

    def __init__(self, inner: Communicator, events: EventLog | None = None,
                 tracer=None):
        super().__init__(inner)
        self.events = events if events is not None else EventLog()
        if tracer is None:
            # Deferred import: repro.observe.hooks imports repro.comm.base,
            # and this module is pulled in by repro.comm's package init.
            from repro.observe.trace import NULL_TRACER
            tracer = NULL_TRACER
        self.tracer = tracer

    def window(self) -> EventWindow:
        """Open an :class:`EventWindow` over this communicator's log."""
        return EventWindow(self.events)

    # -- point to point -----------------------------------------------------------

    def send(self, obj, dest: int, tag: int = 0) -> None:
        self.events.record("p2p_send", tag, bytes=payload_bytes(obj))
        with self.tracer.span("p2p_send", tag):
            self.inner.send(obj, dest, tag)

    def recv(self, source: int, tag: int = 0,
             timeout: float | None = None):
        with self.tracer.span("p2p_recv", tag):
            obj = self.inner.recv(source, tag, timeout=timeout)
        self.events.record("p2p_recv", tag, bytes=payload_bytes(obj))
        return obj

    # -- collectives -----------------------------------------------------------------

    def allreduce(self, value, op: str = "sum"):
        self.events.record("allreduce", op, bytes=payload_bytes(value))
        with self.tracer.span("allreduce", op):
            return self.inner.allreduce(value, op)

    def bcast(self, obj, root: int = 0):
        self.events.record("bcast", None, bytes=payload_bytes(obj))
        with self.tracer.span("bcast"):
            return self.inner.bcast(obj, root)

    def gather(self, obj, root: int = 0):
        self.events.record("gather", None, bytes=payload_bytes(obj))
        with self.tracer.span("gather"):
            return self.inner.gather(obj, root)

    def allgather(self, obj) -> list:
        self.events.record("allgather", None, bytes=payload_bytes(obj))
        with self.tracer.span("allgather"):
            return self.inner.allgather(obj)

    def barrier(self) -> None:
        self.events.record("barrier", None)
        with self.tracer.span("barrier"):
            self.inner.barrier()
