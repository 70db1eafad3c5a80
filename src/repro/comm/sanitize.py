"""Runtime SPMD sanitizer: fail loudly where plain SPMD bugs would hang.

:class:`SanitizerComm` wraps any :class:`~repro.comm.base.Communicator`
and cross-checks, at every collective, a *fingerprint* of the operation
(kind, reduce op, payload dtype/shape, call-site) against what every other
rank of the same world deposited for the same round.  Divergent collectives
— the classic ``if comm.rank == 0: comm.allreduce(...)`` deadlock — become
a structured :class:`~repro.utils.errors.SanitizerError` naming both
call-sites instead of a hang.  Three checks run:

- **collective fingerprint cross-check** — all ranks must issue the same
  collective kind (and, for reductions, the same op) each round; payload
  dtype/shape must agree for reductions;
- **p2p write-epoch tracking** — every mailbox ``(src, dst, tag)`` carries
  write/read epoch counters and a queue of message stamps (dtype, shape,
  send call-site).  A second *distinct* call-site writing a channel whose
  previous write is still undrained is an ambiguous-matching race; a
  received payload that does not match its stamp is a crossed message;
  :meth:`SanitizerComm.check_quiescent` reports orphaned messages;
- **deadlock watchdog** — collective synchronisation and blocking receives
  are bounded by timeouts; on expiry the sanitizer dumps every rank's
  last-known operation, the undelivered messages relevant to the blocked
  receive (naming the *sender's* call-site), and the live thread stacks.

The sanitizer is purely observational: payloads pass through untouched
(bit-identical results), no events are recorded (``EventLog`` accounting
and the recovery/replacement rerouting of PRs 2-5 stay exactly as they
were), and unknown attributes (``events``, ``world``) delegate to the
wrapped communicator so instrumentation underneath remains reachable.
Stack it *outermost*: retries and checksum lanes below it then stay
invisible, so the sanitizer sees only first-attempt logical operations.
"""

from __future__ import annotations

import sys
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.comm.base import Communicator, ForwardingComm, Request
from repro.utils.errors import CommunicationError, SanitizerError

#: Default bound on how long one rank may sit in a collective waiting for
#: the rest of the world before the watchdog declares divergence.
DEFAULT_COLLECTIVE_TIMEOUT_S = 60.0
#: Default bound on a blocking point-to-point receive.
DEFAULT_P2P_TIMEOUT_S = 30.0

_THIS_FILE = __file__


def _callsite() -> str:
    """``file.py:line`` of the innermost frame outside the sanitizer."""
    for frame in reversed(traceback.extract_stack()):
        if frame.filename != _THIS_FILE:
            return f"{frame.filename}:{frame.lineno}"
    return "<unknown>"


def _stamp(obj) -> tuple[str, tuple]:
    """(dtype, shape) identity of a payload for cross-rank comparison."""
    if isinstance(obj, np.ndarray):
        return (str(obj.dtype), obj.shape)
    if isinstance(obj, (bool, int, float, complex, np.floating, np.integer)):
        return ("scalar", ())
    if isinstance(obj, (list, tuple)):
        return ("seq", (len(obj),))
    if obj is None:
        return ("none", ())
    return (type(obj).__name__, ())


@dataclass(frozen=True)
class CollectiveFingerprint:
    """Per-rank identity of one collective call.

    ``site`` is carried for reporting but excluded from :meth:`matches`:
    the symmetric idiom ``bcast(payload) if rank == root else bcast(None)``
    legitimately issues the same collective from two source lines (and
    with divergent payload stamps — only reductions compare payloads,
    because every rank's contribution to a reduction must be congruent).
    """

    kind: str
    op: str | None
    dtype: str | None
    shape: tuple | None
    root: int | None
    site: str

    def matches(self, other: "CollectiveFingerprint") -> bool:
        return (self.kind == other.kind and self.op == other.op
                and self.dtype == other.dtype and self.shape == other.shape
                and self.root == other.root)

    def describe(self) -> str:
        bits = [self.kind]
        if self.op is not None:
            bits.append(f"op={self.op}")
        if self.dtype is not None:
            bits.append(f"{self.dtype}{list(self.shape or ())}")
        if self.root is not None:
            bits.append(f"root={self.root}")
        return f"{' '.join(bits)} at {self.site}"


class SanitizerState:
    """Shared cross-rank state for one sanitized world.

    Create one per world and hand the same instance to every rank's
    :class:`SanitizerComm`.  A single-rank state (the default when a
    wrapper is built without one) degenerates to self-checks only.
    """

    def __init__(self, size: int,
                 collective_timeout: float = DEFAULT_COLLECTIVE_TIMEOUT_S):
        if size < 1:
            raise CommunicationError(
                f"sanitizer world size must be >= 1, got {size}")
        self.size = size
        self.collective_timeout = collective_timeout
        # Reentrant: the epoch trackers call fail() (which re-acquires
        # the lock to record the failure) while still holding it.
        self.lock = threading.RLock()
        self.barrier = threading.Barrier(size)
        self.slots: list[CollectiveFingerprint | None] = [None] * size
        self.status = ["idle (no operation yet)"] * size
        self.threads: dict[int, int] = {}
        self.rounds = 0
        self.failure: str | None = None
        # (src, dst, tag) -> {"writes", "reads", "pending": deque of
        #                     {"epoch", "site", "stamp"}}
        self.channels: dict[tuple[int, int, int], dict] = {}

    # -- failure plumbing ------------------------------------------------------

    def fail(self, rank: int, message: str) -> SanitizerError:
        """Record the first failure, break peers out of barriers, and
        build the error for the detecting rank to raise."""
        with self.lock:
            if self.failure is None:
                self.failure = f"rank {rank}: {message}"
        self.barrier.abort()
        return SanitizerError(message)

    # -- collectives -----------------------------------------------------------

    def check_collective(self, rank: int,
                         fp: CollectiveFingerprint) -> None:
        self.threads[rank] = threading.get_ident()
        self.status[rank] = f"in collective {fp.describe()}"
        self.slots[rank] = fp
        if self.size > 1:
            self._sync(rank)
        fps = list(self.slots)
        if self.size > 1:
            self._sync(rank)
        self.rounds += 1
        mine = fps[rank]
        for other_rank, other in enumerate(fps):
            if other is None:
                raise self.fail(rank, (
                    f"collective fingerprint missing for rank "
                    f"{other_rank} while rank {rank} ran "
                    f"{mine.describe()}"))
            if not mine.matches(other):
                raise self.fail(rank, (
                    "divergent collectives: rank "
                    f"{rank} called {mine.describe()} but rank "
                    f"{other_rank} called {other.describe()}"))
        self.status[rank] = f"after collective {fp.describe()}"

    def _sync(self, rank: int) -> None:
        try:
            self.barrier.wait(timeout=self.collective_timeout)
        except threading.BrokenBarrierError:
            if self.failure is not None:
                raise SanitizerError(
                    f"aborted by peer failure ({self.failure})") from None
            raise self.fail(rank, self.watchdog_report(rank)) from None

    # -- p2p write-epoch tracking ---------------------------------------------

    def _channel(self, key: tuple[int, int, int]) -> dict:
        return self.channels.setdefault(
            key, {"writes": 0, "reads": 0, "pending": deque()})

    def record_send(self, rank: int, dest: int, tag: int, obj,
                    site: str) -> None:
        self.threads[rank] = threading.get_ident()
        with self.lock:
            c = self._channel((rank, dest, tag))
            backlog = c["writes"] - c["reads"]
            if backlog > 0:
                other = next((p for p in c["pending"]
                              if p["site"] != site), None)
                if other is not None:
                    raise self.fail(rank, (
                        f"p2p write-epoch race on channel src={rank} "
                        f"dst={dest} tag={tag}: send at {site} (write "
                        f"epoch {c['writes'] + 1}) overlaps the "
                        f"undrained send at {other['site']} (write epoch "
                        f"{other['epoch']}, read epoch {c['reads']}) — "
                        "two call-sites race for one mailbox"))
            c["writes"] += 1
            c["pending"].append(
                {"epoch": c["writes"], "site": site, "stamp": _stamp(obj)})
        self.status[rank] = f"after p2p send to {dest} tag={tag} at {site}"

    def record_recv(self, rank: int, source: int, tag: int, obj,
                    site: str) -> None:
        with self.lock:
            c = self._channel((source, rank, tag))
            c["reads"] += 1
            if c["pending"]:
                ent = c["pending"].popleft()
                if ent["stamp"] != _stamp(obj):
                    raise self.fail(rank, (
                        f"crossed message on channel src={source} "
                        f"dst={rank} tag={tag}: recv at {site} got "
                        f"{_stamp(obj)} but the matching send at "
                        f"{ent['site']} (write epoch {ent['epoch']}) "
                        f"shipped {ent['stamp']}"))
        self.status[rank] = \
            f"after p2p recv from {source} tag={tag} at {site}"

    def undelivered(self, dst: int, source: int | None = None) -> list[str]:
        """Human-readable undrained messages addressed to ``dst``."""
        out = []
        with self.lock:
            for (src, d, tag), c in sorted(self.channels.items()):
                if d != dst or (source is not None and src != source):
                    continue
                for ent in c["pending"]:
                    out.append(
                        f"message from rank {src} on tag {tag} sent at "
                        f"{ent['site']} (write epoch {ent['epoch']}) is "
                        "still undelivered")
        return out

    def check_quiescent(self) -> None:
        """Raise unless every channel has been fully drained."""
        leaks = []
        with self.lock:
            for (src, dst, tag), c in sorted(self.channels.items()):
                if c["writes"] != c["reads"]:
                    sites = ", ".join(p["site"] for p in c["pending"])
                    leaks.append(
                        f"channel src={src} dst={dst} tag={tag}: "
                        f"{c['writes']} write(s) vs {c['reads']} read(s)"
                        + (f" (sent at {sites})" if sites else ""))
        if leaks:
            raise SanitizerError(
                "p2p channels not quiescent — orphaned messages:\n  "
                + "\n  ".join(leaks))

    # -- watchdog --------------------------------------------------------------

    def watchdog_report(self, rank: int, header: str | None = None) -> str:
        lines = [header or (
            "deadlock watchdog: a collective did not complete within "
            f"{self.collective_timeout}s (observed from rank {rank})")]
        for r in range(self.size):
            lines.append(f"  rank {r}: {self.status[r]}")
        for note in self.undelivered(rank):
            lines.append(f"  note: {note}")
        frames = sys._current_frames()
        for r, ident in sorted(self.threads.items()):
            frame = frames.get(ident)
            if frame is None or r == rank:
                continue
            tail = traceback.format_stack(frame)[-1].strip()
            lines.append(f"  rank {r} blocked at: " + tail.splitlines()[0])
        return "\n".join(lines)


class _SanitizedRecvRequest(Request):
    """Wraps a pending receive with a bounded wait and stamp check."""

    def __init__(self, comm: "SanitizerComm", source: int, tag: int,
                 inner: Request, site: str):
        self._comm = comm
        self._source = source
        self._tag = tag
        self._inner = inner
        self._site = site
        self._done = False
        self._value = None

    def test(self) -> bool:
        if self._done:
            return True
        if self._inner.test():
            self._value = self._inner.wait()
            self._comm.state.record_recv(
                self._comm.rank, self._source, self._tag, self._value,
                self._site)
            self._done = True
        return self._done

    def wait(self):
        if self._done:
            return self._value
        state = self._comm.state
        deadline = time.monotonic() + self._comm.p2p_timeout
        state.status[self._comm.rank] = (
            f"in p2p irecv-wait from {self._source} tag={self._tag} "
            f"at {self._site}")
        while not self.test():
            if state.failure is not None:
                raise SanitizerError(
                    f"aborted by peer failure ({state.failure})")
            if time.monotonic() > deadline:
                raise state.fail(self._comm.rank, state.watchdog_report(
                    self._comm.rank,
                    header=(
                        "deadlock watchdog: irecv wait() from rank "
                        f"{self._source} tag={self._tag} at {self._site} "
                        f"exceeded {self._comm.p2p_timeout}s")))
            time.sleep(0.002)
        return self._value


class SanitizerComm(ForwardingComm):
    """Transparent sanitizing wrapper around any communicator.

    Parameters
    ----------
    inner:
        The communicator to wrap (stack outermost, above instrumentation
        and resilience wrappers).
    state:
        The world's shared :class:`SanitizerState`.  Defaults to a fresh
        single-or-``inner.size``-rank state, which is correct only when
        this wrapper is the sole member (serial runs); multi-rank worlds
        must share one state across every rank's wrapper.
    p2p_timeout:
        Bound (seconds) on blocking receives and ``irecv`` waits.
    """

    def __init__(self, inner: Communicator,
                 state: SanitizerState | None = None,
                 p2p_timeout: float = DEFAULT_P2P_TIMEOUT_S):
        super().__init__(inner)
        self.state = state if state is not None \
            else SanitizerState(inner.size)
        if self.state.size != inner.size:
            raise CommunicationError(
                f"sanitizer state is sized for {self.state.size} rank(s) "
                f"but the wrapped communicator has {inner.size}")
        self.p2p_timeout = p2p_timeout

    def __getattr__(self, name: str):
        # Transparency: expose whatever the wrapped stack offers (events,
        # world, tracer, ...) so accounting and rerouting stay reachable.
        return getattr(self.inner, name)

    def check_quiescent(self) -> None:
        """Assert every p2p mailbox this world touched is drained."""
        self.state.check_quiescent()

    # -- point to point --------------------------------------------------------

    def send(self, obj, dest: int, tag: int = 0) -> None:
        site = _callsite()
        self.state.record_send(self.rank, dest, tag, obj, site)
        self.inner.send(obj, dest, tag)

    def isend(self, obj, dest: int, tag: int = 0) -> Request:
        site = _callsite()
        self.state.record_send(self.rank, dest, tag, obj, site)
        return self.inner.isend(obj, dest, tag)

    def recv(self, source: int, tag: int = 0,
             timeout: float | None = None):
        site = _callsite()
        state = self.state
        state.threads[self.rank] = threading.get_ident()
        state.status[self.rank] = \
            f"in p2p recv from {source} tag={tag} at {site}"
        bound = self.p2p_timeout if timeout is None else timeout
        try:
            obj = self.inner.recv(source, tag, timeout=bound)
        except SanitizerError:
            raise
        except CommunicationError as exc:
            if state.failure is not None:
                raise SanitizerError(
                    f"aborted by peer failure ({state.failure})") from exc
            raise state.fail(self.rank, state.watchdog_report(
                self.rank,
                header=(f"deadlock watchdog: recv from rank {source} "
                        f"tag={tag} at {site} failed ({exc})"))) from exc
        state.record_recv(self.rank, source, tag, obj, site)
        return obj

    def irecv(self, source: int, tag: int = 0) -> Request:
        site = _callsite()
        return _SanitizedRecvRequest(
            self, source, tag, self.inner.irecv(source, tag), site)

    # -- collectives -----------------------------------------------------------

    def allreduce(self, value, op: str = "sum"):
        dtype, shape = _stamp(value)
        self.state.check_collective(self.rank, CollectiveFingerprint(
            kind="allreduce", op=op, dtype=dtype, shape=shape, root=None,
            site=_callsite()))
        return self.inner.allreduce(value, op)

    def bcast(self, obj, root: int = 0):
        self.state.check_collective(self.rank, CollectiveFingerprint(
            kind="bcast", op=None, dtype=None, shape=None, root=root,
            site=_callsite()))
        return self.inner.bcast(obj, root)

    def gather(self, obj, root: int = 0):
        self.state.check_collective(self.rank, CollectiveFingerprint(
            kind="gather", op=None, dtype=None, shape=None, root=root,
            site=_callsite()))
        return self.inner.gather(obj, root)

    def allgather(self, obj) -> list:
        self.state.check_collective(self.rank, CollectiveFingerprint(
            kind="allgather", op=None, dtype=None, shape=None, root=None,
            site=_callsite()))
        return self.inner.allgather(obj)

    def barrier(self) -> None:
        self.state.check_collective(self.rank, CollectiveFingerprint(
            kind="barrier", op=None, dtype=None, shape=None, root=None,
            site=_callsite()))
        self.inner.barrier()
