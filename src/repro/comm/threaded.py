"""Thread-backed SPMD world.

Each rank is an OS thread; rank code is written exactly as it would be with
mpi4py.  Everything travels through mailboxes, one C ``queue.SimpleQueue``
per ``(src, dst, key)``: a blocked ``get`` releases the GIL and exactly one
``put`` wakes it.  Point-to-point messages are keyed by the user's ``int``
tag; collectives by :data:`_COLLECTIVE`, which no tag can equal.  A
collective is one exchange: a rank puts its contribution into each peer's
collective mailbox, then takes one from each peer (``barrier`` carries
``None``), so no rank leaves before every rank has entered.  Ranks issue
collectives in the same order and mailboxes are FIFO, so a fast rank's
next contribution queues behind the current one.

Determinism: reductions fold contributions in rank order, so every rank sees
a bit-identical result regardless of thread scheduling — this is what makes
decomposed solves reproducible run-to-run.

Failure handling: when any rank raises, the world is *aborted* — blocked
collectives and pending receives raise :class:`CommunicationError` instead
of hanging forever.  :func:`repro.comm.spmd.launch_spmd` relies on this to
propagate the original error.

Abort is deliberately *lazy*: it only breaks operations that can never be
satisfied.  It puts a wake token *behind* every mailbox's deposits, so a
surviving rank wakes at once yet keeps consuming messages its dead peer
already sent and keeps passing collectives its peer already entered — it
fails at the first operation the peer genuinely never served.  That point
is a function of the peer's (deterministic) death position, not of how
fast the abort propagated, which is what makes a surviving rank's
progress — and therefore its guard/checkpoint state at death —
reproducible run-to-run.
"""

from __future__ import annotations

import threading
import time
from queue import Empty, SimpleQueue

from repro.comm.base import (
    Communicator,
    Request,
    isolate,
    reduce_in_rank_order,
)
from repro.utils.errors import CommunicationError

#: Longest a blocked receive sleeps between abort checks; an abort's wake
#: token normally ends the sleep first.
_POLL_S = 0.02
#: Receive timeout; exceeded only by deadlocked exchanges, so fail loudly.
_RECV_TIMEOUT_S = 120.0
#: Mailbox key of the collectives; no user ``int`` tag can equal it.
_COLLECTIVE = object()
#: The abort's wake token; also :func:`_poll`'s "no deposit".
_WAKE = object()


def _poll(box: SimpleQueue):
    """The next real deposit in ``box`` without blocking, else ``_WAKE``."""
    while True:
        try:
            obj = box.get_nowait()
        except Empty:
            return _WAKE
        if obj is not _WAKE:
            return obj


class ThreadWorld:
    """Shared state for a world of ``size`` thread ranks.

    ``recv_timeout_s`` is the world-level deadlock guard: the default
    receive/collective wait bound when the caller passes no explicit
    per-operation timeout.  It used to be the hardcoded
    :data:`_RECV_TIMEOUT_S`; the deck key ``tl_comm_timeout`` / CLI
    ``--comm-timeout`` now reach it through
    :func:`~repro.comm.spmd.launch_spmd`.
    """

    def __init__(self, size: int, recv_timeout_s: float = _RECV_TIMEOUT_S):
        if size < 1:
            raise CommunicationError(f"world size must be >= 1, got {size}")
        if recv_timeout_s <= 0:
            raise CommunicationError(
                f"recv_timeout_s must be > 0, got {recv_timeout_s}")
        self.size = size
        self.recv_timeout_s = recv_timeout_s
        #: guards mailbox creation, so :meth:`abort` sees every mailbox
        self._lock = threading.Lock()
        self._mailboxes: dict[tuple, SimpleQueue] = {}
        self._aborted = False

    def abort(self) -> None:
        """Break all pending synchronisation; called when a rank fails.

        The flag is set before the mailboxes are listed, so a reader of a
        mailbox created after the listing already sees the flag.
        """
        self._aborted = True
        with self._lock:
            boxes = list(self._mailboxes.values())
        for box in boxes:
            box.put(_WAKE)

    def comm(self, rank: int) -> "ThreadComm":
        if not 0 <= rank < self.size:
            raise CommunicationError(f"rank {rank} out of range [0,{self.size})")
        return ThreadComm(self, rank)

    # -- internals ---------------------------------------------------------------

    def _mailbox(self, src: int, dst: int, key) -> SimpleQueue:
        try:
            return self._mailboxes[src, dst, key]
        except KeyError:
            with self._lock:
                return self._mailboxes.setdefault((src, dst, key),
                                                  SimpleQueue())

    def _take(self, box: SimpleQueue, src: int, dst: int, key,
              timeout: float | None = None, what: str = ""):
        """Next deposit in ``box``, the mailbox of ``(src, dst, key)``.

        ``what`` names a collective's wait in errors.  Once the world is
        aborted, only a deposit already made is returned.
        """
        try:   # a deposit already made costs no clock and no wait
            obj = box.get_nowait()
            if obj is not _WAKE:
                return obj
        except Empty:
            pass
        limit = self.recv_timeout_s if timeout is None else timeout
        deadline = time.monotonic() + limit
        while not self._aborted:
            wait = min(_POLL_S, deadline - time.monotonic())
            try:
                obj = box.get(timeout=max(wait, 0.0))
            except Empty:
                if wait > 0:
                    continue
                break
            if obj is not _WAKE:
                return obj
        else:
            obj = _poll(box)
            if obj is not _WAKE:
                return obj
        collective = key is _COLLECTIVE
        where = f"rank {src} in {what}" if collective else \
            f"src={src} tag={key}"
        if self._aborted:
            raise CommunicationError(
                f"world aborted while rank {dst} awaited {where}")
        why = ("probable deadlock" if timeout is None
               else "dead peer or dropped message")
        raise CommunicationError(
            f"{'collective' if collective else 'receive'} timeout after "
            f"{limit}s: rank {dst} awaiting {where} — {why}")


class _MailboxRequest(Request):
    """Pending receive against a world mailbox."""

    def __init__(self, world: ThreadWorld, src: int, dst: int, tag: int):
        self._world = world
        self._args = (world._mailbox(src, dst, tag), src, dst, tag)
        self._value = _WAKE

    def test(self) -> bool:
        if self._value is _WAKE:
            self._value = _poll(self._args[0])
        return self._value is not _WAKE

    def wait(self):
        if self._value is _WAKE:
            self._value = self._world._take(*self._args)
        return self._value


class ThreadComm(Communicator):
    """One rank's endpoint into a :class:`ThreadWorld`."""

    def __init__(self, world: ThreadWorld, rank: int):
        self.world = world
        self.rank = rank
        self.size = world.size
        # this rank's collective mailboxes, resolved once: out to each
        # peer, and in from each peer in rank order
        peers = [p for p in range(world.size) if p != rank]
        self._outboxes = [world._mailbox(rank, p, _COLLECTIVE) for p in peers]
        self._inboxes = [(world._mailbox(p, rank, _COLLECTIVE), p)
                         for p in peers]
        # point-to-point mailboxes by (peer, tag), resolved at first use
        self._sends, self._recvs = {}, {}

    # -- point to point ---------------------------------------------------------

    def send(self, obj, dest: int, tag: int = 0) -> None:
        try:
            box = self._sends[dest, tag]
        except KeyError:
            self._check_peer(dest)
            box = self._sends[dest, tag] = self.world._mailbox(
                self.rank, dest, tag)
        box.put(isolate(obj))

    def recv(self, source: int, tag: int = 0,
             timeout: float | None = None):
        """Blocking receive; ``timeout`` (seconds) bounds the wait.

        Default ``None`` keeps the long global deadlock guard for
        back-compat; an explicit timeout raises
        :class:`CommunicationError` once exceeded, so a dead peer fails
        loudly instead of hanging the rank forever.  Used by
        :class:`~repro.resilience.retry.RetryingComm`.
        """
        try:
            box = self._recvs[source, tag]
        except KeyError:
            self._check_peer(source)
            box = self._recvs[source, tag] = self.world._mailbox(
                source, self.rank, tag)
        return self.world._take(box, source, self.rank, tag, timeout)

    def irecv(self, source: int, tag: int = 0) -> Request:
        """Truly non-blocking receive: returns a pollable request."""
        self._check_peer(source)
        return _MailboxRequest(self.world, source, self.rank, tag)

    # -- collectives --------------------------------------------------------------

    def _exchange(self, value, what: str) -> list:
        """Every rank's ``value`` of this collective, indexed by rank."""
        for box in self._outboxes:
            box.put(value)
        values = [value] * self.size
        for box, src in self._inboxes:
            values[src] = self.world._take(box, src, self.rank, _COLLECTIVE,
                                           what=what)
        return values

    def allreduce(self, value, op: str = "sum"):
        return reduce_in_rank_order(self._exchange(value, "allreduce"), op)

    def bcast(self, obj, root: int = 0):
        self._check_root(root)
        values = self._exchange(obj if self.rank == root else None, "bcast")
        return values[root] if self.rank == root else isolate(values[root])

    def gather(self, obj, root: int = 0):
        self._check_root(root)
        values = self._exchange(obj, "gather")
        if self.rank != root:
            return None
        return [v if r == self.rank else isolate(v)
                for r, v in enumerate(values)]

    def allgather(self, obj) -> list:
        return [isolate(v) for v in self._exchange(obj, "allgather")]

    def barrier(self) -> None:
        self._exchange(None, "barrier")

    # -- helpers ---------------------------------------------------------------------

    def _check_root(self, root: int) -> None:
        if not 0 <= root < self.size:
            raise CommunicationError(
                f"root {root} out of range [0,{self.size})")
