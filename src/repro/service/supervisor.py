"""Worker supervision: stuck-dispatch detection.

A dispatch can wedge without failing — a solver spinning past any useful
iteration count, a worker thread blocked on a peer that will never send.
The supervisor turns "no progress" into a first-class, *cooperative*
abort: every supervised dispatch runs under a :class:`SupervisedToken`
whose ``check``/``poll`` calls double as **heartbeats**, and the token
raises :class:`~repro.utils.errors.WorkerStuck` (a
:class:`~repro.utils.errors.Cancelled` subclass, so rank-coherent at an
iteration boundary) when either

- the dispatch exceeds its **iteration allowance** — the deterministic
  engine derives it from ``ServiceConfig.stuck_after_s`` and the
  per-iteration cost model, so virtual-time runs stay byte-reproducible;
- a wall-clock watchdog :meth:`~SupervisedToken.trip`\\ s it — the
  asyncio front-end arms a ``loop.call_later`` per dispatch and relays
  the trip through the worker's cancel slot.

The engine classifies a ``WorkerStuck`` result like a retryable failure:
the worker's breaker records the failure and the request re-dispatches
(hedged, preferring a different worker) while attempts remain.
"""

from __future__ import annotations

from repro.utils.errors import WorkerStuck

__all__ = ["SupervisedToken"]


class SupervisedToken:
    """Cancel-token wrapper adding a progress allowance and a trip wire.

    Duck-types the :class:`~repro.service.cancel.CancelToken` surface
    (``check``/``poll``/``cancel``), so it drops into ``solve_linear``
    and the comm stack unchanged.  The inner token's own deadline /
    client-cancel semantics always win — they are checked first — and
    an un-tripped token with ``iteration_allowance=None`` is
    bit-transparent.
    """

    __slots__ = ("inner", "iteration_allowance", "heartbeats",
                 "last_iteration", "_tripped", "_trip_reason")

    def __init__(self, inner, iteration_allowance: int | None = None):
        self.inner = inner
        if iteration_allowance is not None and iteration_allowance < 1:
            iteration_allowance = 1
        self.iteration_allowance = iteration_allowance
        self.heartbeats = 0
        self.last_iteration = -1
        self._tripped = False
        self._trip_reason = ""

    # -- watchdog side ---------------------------------------------------------

    def trip(self, reason: str = "worker stuck") -> None:
        """Declare the dispatch stuck (thread-safe, idempotent).

        The worker observes it at its next ``check``/``poll`` and raises
        :class:`WorkerStuck` — cooperative, so a genuinely live worker
        aborts cleanly at an iteration boundary.
        """
        if not self._tripped:
            self._trip_reason = reason
            self._tripped = True

    @property
    def tripped(self) -> bool:
        return self._tripped

    # -- solver side -----------------------------------------------------------

    def check(self, iteration: int) -> None:
        self.heartbeats += 1
        self.last_iteration = max(self.last_iteration, iteration)
        self.inner.check(iteration)
        if self._tripped:
            raise WorkerStuck(
                f"{self._trip_reason or 'worker stuck'} "
                f"at iteration {iteration}", iteration=iteration)
        if self.iteration_allowance is not None \
                and iteration >= self.iteration_allowance:
            raise WorkerStuck(
                f"no progress after {iteration} iterations "
                f"(allowance {self.iteration_allowance})",
                iteration=iteration)

    def poll(self) -> None:
        self.heartbeats += 1
        self.inner.poll()
        if self._tripped:
            raise WorkerStuck(self._trip_reason or "worker stuck",
                              iteration=-1)

    def cancel(self, reason: str = "client cancelled") -> None:
        self.inner.cancel(reason)

    @property
    def cancel_requested(self) -> bool:
        return self.inner.cancel_requested

    @property
    def reason(self) -> str:
        return getattr(self.inner, "reason", "")

