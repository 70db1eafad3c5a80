"""Bounded retry with deterministic exponential backoff.

:class:`RetryingComm` sits between the instrumentation layer and the
fault injector in the canonical resilient stack::

    InstrumentedComm(RetryingComm(FaultyComm(base)))

It re-issues operations that fail with
:class:`~repro.utils.errors.TransientCommError` — the *recoverable* fault
class — up to ``max_attempts`` times, sleeping
``base_delay * backoff ** (attempt - 1)`` between attempts on a pluggable
clock.  Plain :class:`~repro.utils.errors.CommunicationError` (API
misuse, a receive timeout on a genuinely dropped message, an aborted
world) is *not* retried: re-issuing those can only waste the budget or
hang, so they fail fast to the solver-level recovery machinery.

Every re-issue records a :data:`~repro.comm.instrument.RETRY_KIND`
event, so retries are visible in the event log but never inflate the
logical operation counts the COMM_CONTRACT verifier asserts on.

No wall-clock time is consulted anywhere: the default
:class:`VirtualClock` just accumulates the seconds it was asked to
sleep, which keeps retry schedules (and therefore whole runs) exactly
reproducible and makes backoff costs measurable in tests.
"""

from __future__ import annotations

from repro.comm.base import Communicator, ForwardingComm
from repro.comm.instrument import RETRY_KIND
from repro.utils.errors import ConfigurationError, TransientCommError
from repro.utils.events import EventLog


class VirtualClock:
    """Deterministic clock: ``sleep`` only advances a counter.

    Shared between :class:`RetryingComm` (backoff sleeps) and
    :class:`~repro.resilience.faults.FaultyComm` (``delay`` faults) so a
    run's total injected latency is a single inspectable number.

    The instance is also **callable** (returns ``now``), so the same
    clock plugs into :class:`~repro.observe.trace.Tracer` and
    :class:`~repro.utils.timing.Timer`, making traces and timings of a
    run deterministic.  A non-zero ``tick`` advances ``now`` by that
    much on every *read*, which keeps deterministic timestamps strictly
    monotonic (distinct) without any wall-clock dependence; ``tick = 0``
    preserves the historical behaviour exactly.
    """

    def __init__(self, tick: float = 0.0):
        self.now = 0.0
        self.tick = tick

    def sleep(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        t = self.now
        self.now += self.tick
        return t


class RetryingComm(ForwardingComm):
    """Communicator decorator that retries transient failures.

    Parameters
    ----------
    inner:
        The wrapped communicator (typically a
        :class:`~repro.resilience.faults.FaultyComm`).
    max_attempts:
        Total attempts per operation (first try included); must be >= 1.
    base_delay / backoff / max_delay:
        Backoff schedule: attempt ``k`` (1-based re-issue) sleeps
        ``min(base_delay * backoff ** (k - 1), max_delay)`` virtual
        seconds.  The cap keeps long retry chains (chaos campaigns run
        with generous ``max_attempts``) from charging exponentially
        growing virtual latency: without it a 20-attempt budget would
        sleep ``base_delay * 2**18`` on its last re-issue.
    clock:
        Object with ``sleep(seconds)``; defaults to a fresh
        :class:`VirtualClock`.
    events:
        Optional :class:`EventLog`; each re-issue records
        ``(RETRY_KIND, op_name)``.
    recv_timeout:
        Per-attempt receive timeout in seconds, forwarded to the inner
        ``recv``.  With a :class:`~repro.comm.threaded.ThreadComm`
        underneath this turns a dead peer into a
        :class:`CommunicationError` instead of a deadlock.
    cancel:
        Optional :class:`~repro.service.cancel.CancelToken`-like object
        polled between retry attempts.  A client-cancelled request stops
        burning its retry budget immediately (the poll raises
        :class:`~repro.utils.errors.Cancelled`, which is *not* a
        CommunicationError, so it surfaces as the primary failure);
        deadline budgets are deliberately not fired here — they are a
        function of the solver's iteration counter, which keeps expiry
        rank-coherent.
    """

    def __init__(self, inner: Communicator, max_attempts: int = 5,
                 base_delay: float = 1e-3, backoff: float = 2.0,
                 clock=None, events: EventLog | None = None,
                 recv_timeout: float | None = None,
                 max_delay: float = 1.0, cancel=None):
        if max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {max_attempts}")
        if max_delay < base_delay:
            raise ConfigurationError(
                f"max_delay ({max_delay}) must be >= base_delay "
                f"({base_delay})")
        super().__init__(inner)
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.backoff = backoff
        self.max_delay = max_delay
        self.clock = clock if clock is not None else VirtualClock()
        self.events = events
        self.recv_timeout = recv_timeout
        self.cancel = cancel
        #: total re-issued attempts across all operations
        self.retries = 0

    def _attempt(self, op_name: str, call, *args, **kwargs):
        """Run ``call(*args, **kwargs)`` with bounded retry on
        TransientCommError."""
        attempt = 1
        while True:
            try:
                return call(*args, **kwargs)
            except TransientCommError:
                # The final attempt re-raises the *retryable* error class
                # unchanged (TransientCommError, or its ChecksumError
                # subclass), so solver-level recovery machinery can still
                # classify an exhausted budget as a transient-fault death —
                # distinct from the fail-fast plain CommunicationError a
                # recv timeout raises.
                if attempt >= self.max_attempts:
                    raise
                if self.cancel is not None:
                    # A cancelled request must not burn its retry budget;
                    # Cancelled is not a CommunicationError, so it wins
                    # primary-failure selection in launch_spmd.
                    self.cancel.poll()
                self.clock.sleep(min(self.base_delay
                                     * self.backoff ** (attempt - 1),
                                     self.max_delay))
                attempt += 1
                self.retries += 1
                if self.events is not None:
                    self.events.record(RETRY_KIND, op_name)

    # -- every operation goes through the same retry loop ----------------------

    def send(self, obj, dest: int, tag: int = 0) -> None:
        self._attempt("send", self.inner.send, obj, dest, tag)

    def recv(self, source: int, tag: int = 0,
             timeout: float | None = None):
        per_attempt = timeout if timeout is not None else self.recv_timeout
        return self._attempt("recv", self.inner.recv, source, tag,
                             timeout=per_attempt)

    def allreduce(self, value, op: str = "sum"):
        return self._attempt("allreduce", self.inner.allreduce, value, op)

    def bcast(self, obj, root: int = 0):
        return self._attempt("bcast", self.inner.bcast, obj, root)

    def gather(self, obj, root: int = 0):
        return self._attempt("gather", self.inner.gather, obj, root)

    def allgather(self, obj) -> list:
        return self._attempt("allgather", self.inner.allgather, obj)

    def barrier(self) -> None:
        self._attempt("barrier", self.inner.barrier)
