"""Worker processes of the asyncio front-end: both ends of one protocol.

:class:`WorkerProcess` (parent side) owns one solve slot of
:class:`~repro.service.front.SolveService`: a child interpreter running
:func:`worker_main`, the worker's :class:`CircuitBreaker`, a socket and a
*cancel slot*.  The child is a fresh ``exec`` — never a ``fork`` of the
threaded asyncio parent — started with ``OPENBLAS_NUM_THREADS`` /
``OMP_NUM_THREADS`` / ``MKL_NUM_THREADS`` = 1 in *its* environment, which
is the only place the setting can go: OpenBLAS sizes its thread pool when
the library loads, and ``multiprocessing``'s spawn offers no ``env=`` and
re-imports the caller's ``__main__`` (which usually imports NumPy) before
any worker code runs.  The parent's ``os.environ`` is never written.

One worker per core with one BLAS thread each is the point: two workers
× two BLAS threads oversubscribe a 2-core host (a 0.10 s 128² solve
takes 0.39 s), and one BLAS thread under a *thread* pool still
serialises on the interpreter lock (see docs/service.md, "Execution
model").  Pinning also makes the served bits independent of the host's
core count — above ~10⁴ elements a threaded ``ddot`` sums per-thread
partials in a different order.

What crosses the boundary
-------------------------
parent → worker, per dispatch (pickled over the socket):
    ``(options, n, deadline, iteration_budget)`` — ``deadline`` is an
    absolute ``time.monotonic()`` reading (system-wide, so both
    processes agree) that the *solving* process checks itself at every
    iteration boundary.
parent → worker, mid-solve: the **cancel slot**, ``SLOT_BYTES`` of
    shared memory (an unlinked temporary file mapped by both sides).
    Byte 0 is the command (``0`` none, ``1`` watchdog trip, ``2``
    client cancel), byte 1 the length of the UTF-8 reason that follows.
    The parent's :class:`CancelSlot` writes the reason, then the command;
    the worker-side :class:`SlotCancel` reads byte 0 at each
    ``check``/``poll`` — a memory load, no system call — and fires the
    ordinary token stack, so the abort is still latched at an iteration
    boundary.
worker → parent: ``"ready"`` once, after its imports (the stuck watchdog
    is armed only for a worker that has said so), then per dispatch one
    :class:`SolveReply` — kind, iterations, error class
    and message, the solution, retries, degraded, the token's cancel
    reason.  Not the ``ResilienceReport`` with its event log.

A worker that dies mid-dispatch (SIGKILL, OOM) closes its socket; the
parent reads EOF, answers the dispatch with a ``retryable``
:class:`~repro.utils.errors.WorkerDied` reply and starts a replacement
in the same slot, so the breaker and hedging machinery treat it like any
other worker-level failure.
"""

from __future__ import annotations

import asyncio
import mmap
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import traceback
from dataclasses import dataclass
from functools import partial
from multiprocessing.connection import Connection
from pathlib import Path

import numpy as np

from repro.service.breaker import CircuitBreaker
from repro.service.cancel import CancelToken, DeadlineCancel
from repro.service.supervisor import SupervisedToken
from repro.service.worker import ExecutionResult, WorkerGroup
from repro.utils.errors import WorkerDied

__all__ = ["CancelSlot", "DEADLINE_REASON", "SlotCancel", "SolveReply",
           "WorkerProcess", "worker_main"]

DEADLINE_REASON = "deadline exceeded"

SLOT_BYTES = 256
_NONE, _TRIP, _CANCEL = 0, 1, 2

#: the child's first message, sent once everything is imported
_READY = "ready"

#: every BLAS/OpenMP runtime NumPy may be linked against: one thread
_ONE_THREAD = dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")

#: the directory ``repro`` was imported from, for the worker's PYTHONPATH
_SOURCE_ROOT = str(Path(__file__).resolve().parents[2])

_BOOT = "from repro.service.process import worker_main; worker_main()"

#: how long ``close()`` waits for a worker to leave before killing it
_EXIT_GRACE_S = 5.0


@dataclass
class SolveReply:
    """What one dispatch sends back: enough for a ``RequestOutcome``."""

    #: an :class:`~repro.service.worker.ExecutionResult` kind
    kind: str
    iterations: int = 0
    error_class: str = ""
    error_message: str = ""
    x: np.ndarray | None = None
    retries: int = 0
    degraded: bool = False
    #: reason latched by the worker's token ("" if it never fired)
    cancel_reason: str = ""

    @classmethod
    def of(cls, result: ExecutionResult, cancel_reason: str) -> "SolveReply":
        reply = cls(result.kind, result.iterations, result.error_class,
                    result.error_message, cancel_reason=cancel_reason)
        if result.kind == "ok":
            reply.x = result.report.x
            reply.retries = result.report.retries
            reply.degraded = result.report.degraded
        return reply


class CancelSlot:
    """Parent end of the cancel relay: the shared bytes and who may write them.

    ``token.cancel()`` may come from any thread at any time, and a
    watchdog timer may fire late, so a relay is *armed* for one dispatch
    and writes only while that dispatch still holds the worker.
    """

    def __init__(self):
        self._file = tempfile.TemporaryFile()
        self._file.truncate(SLOT_BYTES)
        self._bytes = mmap.mmap(self._file.fileno(), SLOT_BYTES)
        self._lock = threading.Lock()
        self._armed = 0

    def fileno(self) -> int:
        return self._file.fileno()

    def close(self) -> None:
        self._bytes.close()
        self._file.close()

    def arm(self) -> int:
        """Clear the slot for a new dispatch; returns the id its relays bear."""
        with self._lock:
            self._armed += 1
            self._bytes[0] = _NONE
            return self._armed

    def disarm(self) -> None:
        with self._lock:
            self._armed += 1

    def relay(self, dispatch: int, command: int, reason: str) -> None:
        """Write ``command`` for ``dispatch``, if it is still the armed one.

        A client cancel overwrites a trip, a trip never a cancel (the
        client's own semantics win, as in :class:`SupervisedToken`).
        Reason first, command last: a reader that sees the command sees
        the whole reason.
        """
        text = reason.encode()[:SLOT_BYTES - 2]
        with self._lock:
            if dispatch == self._armed and self._bytes[0] < command:
                self._bytes[1] = len(text)
                self._bytes[2:2 + len(text)] = text
                self._bytes[0] = command


class SlotCancel:
    """Worker-side end of the cancel relay (``check``/``poll`` duck type).

    Wraps the dispatch's :class:`SupervisedToken` stack and, before every
    ``check``/``poll``, turns a command found in the shared slot into the
    same call the parent's thread would have made on a shared token:
    ``cancel(reason)`` or ``trip(reason)``.  An empty slot adds one byte
    load per call and changes nothing else.
    """

    def __init__(self, inner: SupervisedToken, slot):
        self.inner = inner
        self.slot = slot

    def _relay(self) -> None:
        command = self.slot[0]
        if command == _NONE:
            return
        reason = bytes(self.slot[2:2 + self.slot[1]]).decode(errors="replace")
        if command == _CANCEL:
            self.inner.cancel(reason)
        else:
            self.inner.trip(reason)

    def check(self, iteration: int) -> None:
        self._relay()
        self.inner.check(iteration)

    def poll(self) -> None:
        self._relay()
        self.inner.poll()


# -- child side ---------------------------------------------------------------------


def worker_main() -> None:
    """Serve dispatches until the parent closes the socket.

    ``argv``: socket fd, slot fd, worker id, group size (see ``_BOOT``).
    """
    conn_fd, slot_fd, wid, group_size = (int(a) for a in sys.argv[1:5])
    # A terminal's Ctrl-C goes to the whole process group; the parent
    # decides when a worker stops (it closes the socket).
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    worker = WorkerGroup(wid, group_size=group_size)
    with Connection(conn_fd) as conn, mmap.mmap(slot_fd, SLOT_BYTES) as slot:
        os.close(slot_fd)
        try:
            conn.send(_READY)
        except OSError:                 # the parent left before we were up
            return
        while True:
            try:
                options, n, deadline, budget = conn.recv()
            except (EOFError, OSError):     # closed, or reset with unread data
                return
            token = CancelToken(iteration_budget=budget)
            timed = token if deadline is None else \
                DeadlineCancel(token, deadline, DEADLINE_REASON)
            cancel = SlotCancel(SupervisedToken(timed), slot)
            try:
                reply = SolveReply.of(
                    worker.execute(options, n, cancel=cancel), token.reason)
            except Exception as exc:
                # The boundary that must keep serving: an error
                # ``execute`` does not classify is this request's fatal
                # failure, not the worker's death.
                traceback.print_exc()
                reply = SolveReply("fatal", error_class=type(exc).__name__,
                                   error_message=str(exc)[:200])
            try:
                conn.send(reply)
            except OSError:             # the parent left mid-solve
                return


# -- parent side --------------------------------------------------------------------


class WorkerProcess:
    """One solve slot of the front-end: a child process and its breaker."""

    def __init__(self, wid: int, group_size: int = 1):
        self.wid = wid
        self.group_size = group_size
        self.breaker = CircuitBreaker()
        #: claimed by a dispatch (set and cleared by the front's scheduler)
        self.busy = False
        self._slot = CancelSlot()
        self._start()

    def _start(self) -> None:
        """Launch the child; returns before it has imported anything."""
        ours, theirs = socket.socketpair()
        with theirs:
            path = os.pathsep.join(
                p for p in (_SOURCE_ROOT, os.environ.get("PYTHONPATH")) if p)
            self._proc = subprocess.Popen(
                [sys.executable, "-c", _BOOT, str(theirs.fileno()),
                 str(self._slot.fileno()), str(self.wid),
                 str(self.group_size)],
                env={**os.environ, **_ONE_THREAD, "PYTHONPATH": path},
                pass_fds=(theirs.fileno(), self._slot.fileno()),
                stdin=subprocess.DEVNULL)
        self._conn = Connection(ours.detach())
        #: the child's imports are done (it said so)
        self._ready = False

    @property
    def pid(self) -> int:
        return self._proc.pid

    def _stop(self) -> int:
        """Close the socket (the child's cue to leave), reap, return status."""
        self._conn.close()
        try:
            return self._proc.wait(timeout=_EXIT_GRACE_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            return self._proc.wait()

    def close(self) -> None:
        self._stop()
        self._slot.close()

    # -- one dispatch -----------------------------------------------------------

    async def solve(self, options, n: int, deadline: float | None,
                    token: CancelToken, stuck_after_s: float = 0.0
                    ) -> SolveReply:
        """Run one solve in the child; always returns a reply.

        ``token`` is the client's handle: its ``cancel()`` is relayed
        into the slot the moment it happens (or at once, if it already
        has), and with ``stuck_after_s`` a wall-clock watchdog relays a
        trip.  If the child dies first the reply is ``retryable`` /
        ``WorkerDied`` and a replacement is already starting.
        """
        loop = asyncio.get_running_loop()
        dispatch = self._slot.arm()
        on_cancel = partial(self._slot.relay, dispatch, _CANCEL)
        token.add_listener(on_cancel)
        watchdog = None
        reply = None
        try:
            if not self._ready:
                self._ready = await self._receive(loop) == _READY
            if self._ready:
                # Armed only now: the allowance is for the solve, not
                # for a cold worker's imports.
                if stuck_after_s > 0:
                    watchdog = loop.call_later(
                        stuck_after_s, self._slot.relay, dispatch, _TRIP,
                        f"worker {self.wid} watchdog fired after "
                        f"{stuck_after_s}s")
                self._conn.send((options, n, deadline, token.iteration_budget))
                reply = await self._receive(loop)
        except OSError:                 # send: it died while idle
            pass
        finally:
            if watchdog is not None:
                watchdog.cancel()
            token.remove_listener(on_cancel)
            self._slot.disarm()
            if reply is None:
                # Dead, or abandoned mid-solve by a cancelled task (its
                # late reply would answer the next dispatch): replace it.
                self._proc.kill()
                status = self._stop()
                self._start()
        if reply is None:
            reply = SolveReply(
                "retryable", error_class=WorkerDied.__name__,
                error_message=f"worker {self.wid} process ended with status "
                              f"{status} while it held the dispatch")
        return reply

    async def _receive(self, loop):
        """The child's next message, or ``None`` for EOF (it died)."""
        arrived = loop.create_future()

        def readable():
            if not arrived.done():
                try:
                    arrived.set_result(self._conn.recv())
                except (EOFError, OSError):
                    arrived.set_result(None)

        fd = self._conn.fileno()
        loop.add_reader(fd, readable)
        try:
            return await arrived
        finally:
            loop.remove_reader(fd)
