"""Cooperative cancellation for in-flight solves.

A :class:`CancelToken` is handed to a solve (``solve_linear(...,
cancel=token)``) and checked **once per outer iteration boundary**, before
any of the iteration's communication is issued.  Two triggers fire it:

- **Deadline expiry** — the token carries an *iteration budget* computed
  up front from the request deadline and the engine's per-iteration cost
  model.  Expiry is then a pure function of the iteration counter, so in
  an SPMD solve every rank takes the same decision at the same boundary.
- **Client cancellation** — :meth:`CancelToken.cancel` sets a flag from
  any thread.  The first rank to observe it *latches* its own iteration
  number; every other rank raises when it reaches that same boundary.

Why rank-coherence matters: each solver iteration body both begins and
ends with collectives (the matvec's halo exchange + the convergence
reductions), so when one rank stands at boundary ``k`` every peer has
finished boundary ``k-1``'s communication and issued none of boundary
``k``'s.  Raising at the same ``k`` on all ranks therefore leaves **no
pending point-to-point message and no wedged barrier** — the sanitizer's
quiescence check passes, guard checkpoints written before ``k`` stay
restorable, and the world needs no abort-side cleanup.  This is the
property ``tests/test_cancel.py`` pins.

The token is solver-agnostic duck typing: solvers call ``check(i)`` and
communicator layers call ``poll()``; nothing in :mod:`repro.solvers`
imports this module.  An **inert** token (no budget, never cancelled) is
bit-transparent: the solve's iterates, traces and contract counts are
identical to running with ``cancel=None``.
"""

from __future__ import annotations

import threading
import time

from repro.utils.errors import Cancelled, DeadlineExceeded

__all__ = ["CancelToken", "Cancelled", "DeadlineCancel",
           "DeadlineExceeded", "ScheduledCancel"]


class CancelToken:
    """Cooperative, rank-coherent cancellation handle.

    Parameters
    ----------
    iteration_budget:
        Raise :class:`DeadlineExceeded` at the first iteration boundary
        ``>=`` this count (``None``: no deadline).  The service engine
        derives it from ``(deadline - now) / cost_per_iteration`` so the
        decision is deterministic and identical on every rank.
    deadline_s:
        The absolute (virtual-clock) deadline the budget was derived
        from; carried into the error for structured reporting only.
    """

    __slots__ = ("iteration_budget", "deadline_s", "reason",
                 "_requested", "_cancelled_at", "_lock", "_listeners")

    def __init__(self, iteration_budget: int | None = None,
                 deadline_s: float | None = None):
        if iteration_budget is not None and iteration_budget < 0:
            iteration_budget = 0
        self.iteration_budget = iteration_budget
        self.deadline_s = deadline_s
        self.reason = ""
        self._requested = False
        #: iteration boundary latched by the first rank to observe the
        #: cancel flag; every rank raises at exactly this boundary.
        self._cancelled_at: int | None = None
        self._lock = threading.Lock()
        self._listeners: list = []

    # -- client side -----------------------------------------------------------

    def cancel(self, reason: str = "client cancelled") -> None:
        """Request cancellation (thread-safe, idempotent).

        The first request also calls every listener with the reason, on
        the caller's thread.
        """
        with self._lock:
            first = not self._requested
            self.reason = self.reason or reason
            self._requested = True
            listeners = tuple(self._listeners) if first else ()
        for listener in listeners:
            listener(self.reason)

    def add_listener(self, listener) -> None:
        """Call ``listener(reason)`` when cancellation is requested.

        This is how a cancel reaches a solve that does not share this
        object — the front-end's worker processes — the moment it
        happens, with nobody polling :attr:`cancel_requested`.  A token
        already cancelled calls the listener at once.  Listeners must be
        cheap, thread-safe and idempotent.
        """
        with self._lock:
            self._listeners.append(listener)
            requested = self._requested
        if requested:
            listener(self.reason)

    def remove_listener(self, listener) -> None:
        with self._lock:
            self._listeners.remove(listener)

    @property
    def cancel_requested(self) -> bool:
        return self._requested

    # -- solver side -----------------------------------------------------------

    def check(self, iteration: int) -> None:
        """Raise if the solve must stop at this iteration boundary.

        Deadline expiry is a pure function of ``iteration``, so it is
        trivially identical across ranks.  Client cancellation latches
        the *first* observer's boundary: when rank A latches at ``k``,
        every peer has completed iteration ``k-1``'s collectives (A could
        not have finished them alone) and none of iteration ``k``'s (A
        has not entered it) — so each peer's next check is also ``k``
        and all ranks raise together, quiescent.
        """
        if self.iteration_budget is not None \
                and iteration >= self.iteration_budget:
            raise DeadlineExceeded(
                f"deadline exceeded at iteration {iteration} "
                f"(budget {self.iteration_budget})",
                iteration=iteration, deadline_s=self.deadline_s)
        if self._requested and self._cancelled_at is None:
            with self._lock:
                if self._cancelled_at is None:
                    self._cancelled_at = iteration
        at = self._cancelled_at
        if at is not None and iteration >= at:
            raise Cancelled(
                f"{self.reason or 'cancelled'} at iteration {at}",
                iteration=at)

    def poll(self) -> None:
        """Raise :class:`Cancelled` if a client cancel is pending.

        Used by communicator layers (the retry loop) that have no
        iteration counter: a cancelled request must not keep burning its
        retry budget against a dead peer.  Only the *requested* flag is
        consulted — deadline budgets stay an iteration-boundary decision
        so the comm layer cannot fire them rank-incoherently.
        """
        if self._requested:
            raise Cancelled(self.reason or "cancelled", iteration=-1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CancelToken(budget={self.iteration_budget}, "
                f"requested={self._requested}, "
                f"latched={self._cancelled_at})")


class ScheduledCancel:
    """Deterministic stand-in for a mid-solve client cancel.

    Wraps a :class:`CancelToken` and fires its :meth:`~CancelToken.cancel`
    once the solve reaches ``cancel_at_iteration`` — modelling a client
    whose cancel lands while that iteration runs, without any wall-clock
    race.  The service engine converts a request's ``cancel_after_s``
    into the boundary via its per-iteration cost model; tests use it to
    pin the latch-and-raise behaviour at an exact boundary.  Presents
    the same ``check``/``poll``/``cancel`` duck-typed surface, so it
    drops in anywhere a token does.
    """

    def __init__(self, token: CancelToken, cancel_at_iteration: int,
                 reason: str = "client cancelled"):
        self.token = token
        self.cancel_at_iteration = max(0, cancel_at_iteration)
        self.reason = reason

    def check(self, iteration: int) -> None:
        if iteration >= self.cancel_at_iteration:
            self.token.cancel(self.reason)
        self.token.check(iteration)

    def poll(self) -> None:
        self.token.poll()

    def cancel(self, reason: str = "client cancelled") -> None:
        self.token.cancel(reason)

    @property
    def cancel_requested(self) -> bool:
        return self.token.cancel_requested


class DeadlineCancel(ScheduledCancel):
    """Wall-clock sibling of :class:`ScheduledCancel`.

    Fires the wrapped token's :meth:`~CancelToken.cancel` at the first
    iteration boundary on or after ``deadline`` (``time.monotonic``
    seconds) — read by the solving thread itself.  A timer on another
    thread would first have to win the interpreter lock from the
    compute-bound solve it is trying to stop, and a short solve finishes
    before it does.
    """

    def __init__(self, token: CancelToken, deadline: float, reason: str):
        super().__init__(token, 0, reason)
        self.deadline = deadline

    def check(self, iteration: int) -> None:
        if time.monotonic() >= self.deadline:
            self.token.cancel(self.reason)
        self.token.check(iteration)
