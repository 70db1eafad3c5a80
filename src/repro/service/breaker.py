"""Per-worker circuit breaker: closed → open → half-open → closed.

Shields the queue from a worker group that keeps crashing (a fault storm
concentrated on one group, a wedged runtime): after
``failure_threshold`` consecutive retryable failures the breaker opens
and the dispatcher routes around the worker for ``cooldown_s`` virtual
seconds; the first dispatch after the cooldown is the *probe*
(half-open) — success re-closes the breaker, failure re-opens it for
another cooldown.  Driven entirely by caller-supplied virtual
timestamps, so breaker trajectories are deterministic.

Thread safety: the virtual-clock engine is single-threaded and the
asyncio front-end touches its breakers from the event-loop thread only,
but a breaker shared by threaded callers could historically let two
requests both pass the half-open gate between one caller's ``allow``
and its ``on_dispatch`` (the classic check-then-act race, letting two
probes hammer a recovering worker).  All state transitions happen under
one lock, and :meth:`on_dispatch` is the
*atomic* admit-and-claim: it both answers "may I dispatch?" and, in the
same critical section, claims the single half-open probe slot.
"""

from __future__ import annotations

import threading

from repro.utils.validation import check_positive

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Consecutive-failure breaker on a virtual clock."""

    def __init__(self, failure_threshold: int = 3, cooldown_s: float = 5.0):
        check_positive("failure_threshold", failure_threshold)
        check_positive("cooldown_s", cooldown_s)
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.state = CLOSED
        self._consecutive = 0
        self._opened_at = 0.0
        self._probing = False
        self._lock = threading.Lock()
        #: lifetime statistics
        self.opened = 0
        self.reclosed = 0

    def _admit(self, now: float | None) -> bool:
        """Lock-held core of ``allow``/``on_dispatch``.

        ``now=None`` skips the cooldown transition (the caller already
        ran ``allow(now)`` this step); a timestamp additionally moves an
        expired OPEN breaker to HALF_OPEN before deciding.
        """
        if self.state == OPEN:
            if now is not None and now - self._opened_at >= self.cooldown_s:
                self.state = HALF_OPEN
                self._probing = False
            else:
                return False
        if self.state == HALF_OPEN and self._probing:
            return False
        return True

    def allow(self, now: float) -> bool:
        """May the dispatcher hand this worker a request at ``now``?

        Pure query apart from the OPEN → HALF_OPEN cooldown transition;
        it does **not** claim the probe slot.  Concurrent dispatchers
        must gate on :meth:`on_dispatch`, whose answer is atomic with
        the claim.
        """
        with self._lock:
            return self._admit(now)

    def on_dispatch(self, now: float | None = None) -> bool:
        """Atomically admit a dispatch and claim the half-open probe.

        Returns ``False`` when the dispatch must not proceed (breaker
        open, or another thread already holds the probe slot).  On
        ``True`` in the half-open state, the caller now owns the single
        probe; :meth:`record_success`/:meth:`record_failure` releases
        it.  The legacy no-argument call after a winning ``allow(now)``
        remains valid — ``now=None`` merely skips re-checking the
        cooldown clock.
        """
        with self._lock:
            if not self._admit(now):
                return False
            if self.state == HALF_OPEN:
                self._probing = True
            return True

    def record_success(self) -> None:
        with self._lock:
            self._consecutive = 0
            if self.state != CLOSED:
                self.state = CLOSED
                self.reclosed += 1
            self._probing = False

    def record_failure(self, now: float) -> None:
        with self._lock:
            self._consecutive += 1
            self._probing = False
            if self.state == HALF_OPEN or \
                    self._consecutive >= self.failure_threshold:
                self.state = OPEN
                self._opened_at = now
                self._consecutive = 0
                self.opened += 1
