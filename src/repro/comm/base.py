"""Communicator interface and reduction-operator registry."""

from __future__ import annotations

import copy
import functools
import operator
from abc import ABC, abstractmethod
from typing import Any, Callable

import numpy as np

from repro.utils.errors import CommunicationError

#: Reduction operators accepted by :meth:`Communicator.allreduce`.  Values are
#: binary callables applied left-to-right in rank order, which makes results
#: deterministic and identical on every rank; C callables, so a fold runs
#: no Python frame per rank.
REDUCE_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "sum": operator.add,
    "max": np.maximum,
    "min": np.minimum,
    "prod": operator.mul,
}


def reduce_in_rank_order(values: list, op: str):
    """Fold ``values`` (indexed by rank) with ``op``, left to right."""
    try:
        fn = REDUCE_OPS[op]
    except KeyError:
        raise CommunicationError(
            f"unknown reduce op {op!r}; expected one of {sorted(REDUCE_OPS)}")
    return functools.reduce(fn, values)


def isolate(obj):
    """Deep-copy a message payload so sender/receiver never alias memory.

    NumPy arrays take the fast path; everything else goes through
    ``copy.deepcopy`` (matching mpi4py's pickle-based object transport).
    """
    if isinstance(obj, np.ndarray):
        return obj.copy()
    return copy.deepcopy(obj)


def payload_bytes(obj) -> int:
    """Approximate wire size of a message payload, for instrumentation."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (int, float, complex, np.floating, np.integer)):
        return 8
    if isinstance(obj, (list, tuple)):
        return sum(payload_bytes(x) for x in obj)
    if isinstance(obj, dict):
        return sum(payload_bytes(k) + payload_bytes(v) for k, v in obj.items())
    if isinstance(obj, (str, bytes)):
        return len(obj)
    return 8


class Request(ABC):
    """Handle for a non-blocking operation (mpi4py ``Request`` analogue)."""

    @abstractmethod
    def wait(self):
        """Block until complete; returns the received object for receives."""

    @abstractmethod
    def test(self) -> bool:
        """Non-blocking completion check."""


class CompletedRequest(Request):
    """A request that completed immediately (buffered sends)."""

    def __init__(self, value=None):
        self._value = value

    def wait(self):
        return self._value

    def test(self) -> bool:
        return True


class Communicator(ABC):
    """Minimal MPI-like communicator used throughout the library.

    Point-to-point ``send`` is non-blocking (buffered) and ``recv`` blocks,
    which keeps neighbour exchanges deadlock-free without requiring
    ``sendrecv`` choreography.  Collectives synchronise all ranks.
    """

    #: this rank's id in ``[0, size)``
    rank: int
    #: number of ranks in the world
    size: int

    # -- point to point ------------------------------------------------------

    @abstractmethod
    def send(self, obj, dest: int, tag: int = 0) -> None:
        """Buffered send of ``obj`` to ``dest`` (payload is copied)."""

    @abstractmethod
    def recv(self, source: int, tag: int = 0, timeout: float | None = None):
        """Blocking receive of the next message from ``source`` with ``tag``.

        ``timeout`` (seconds) bounds the wait where the transport can
        block; ``None`` means the transport's own default.
        """

    def sendrecv(self, obj, dest: int, source: int, tag: int = 0):
        """Send to ``dest`` and receive from ``source`` on the same tag."""
        self.send(obj, dest, tag)
        return self.recv(source, tag)

    # -- non-blocking (default implementations; ThreadComm overrides irecv) ----

    def isend(self, obj, dest: int, tag: int = 0) -> Request:
        """Non-blocking send; our sends are buffered, so this completes
        immediately (as a buffered MPI_Ibsend would)."""
        self.send(obj, dest, tag)
        return CompletedRequest()

    def irecv(self, source: int, tag: int = 0) -> Request:
        """Non-blocking receive returning a :class:`Request`."""
        return CompletedRequest(self.recv(source, tag))

    # -- collectives ----------------------------------------------------------

    @abstractmethod
    def allreduce(self, value, op: str = "sum"):
        """Reduce ``value`` across ranks; every rank gets the same result."""

    @abstractmethod
    def bcast(self, obj, root: int = 0):
        """Broadcast ``obj`` from ``root``; returns the (copied) object."""

    @abstractmethod
    def gather(self, obj, root: int = 0):
        """Gather one object per rank; returns the list on ``root``, else None."""

    @abstractmethod
    def allgather(self, obj) -> list:
        """Gather one object per rank onto every rank."""

    @abstractmethod
    def barrier(self) -> None:
        """Synchronise all ranks."""

    # -- helpers ---------------------------------------------------------------

    def _check_peer(self, peer: int) -> None:
        if not 0 <= peer < self.size:
            raise CommunicationError(
                f"peer rank {peer} out of range [0,{self.size})")
        if peer == self.rank:
            raise CommunicationError("self-sends are not supported")


class ForwardingComm(Communicator):
    """Base for communicator wrappers: a subclass is only its interceptions.

    Holds ``inner``, copies ``rank``/``size`` as plain attributes (they
    never change for a live communicator) and forwards the seven
    primitives.  ``isend``/``irecv`` are deliberately *not* forwarded:
    the :class:`Communicator` defaults derive them from the wrapper's own
    ``send``/``recv``, so whatever a subclass intercepts there (retry,
    checksums, fault injection, event counts) also covers the
    non-blocking calls.
    """

    def __init__(self, inner: Communicator):
        self.inner = inner
        self.rank = inner.rank
        self.size = inner.size

    def send(self, obj, dest: int, tag: int = 0) -> None:
        self.inner.send(obj, dest, tag)

    def recv(self, source: int, tag: int = 0, timeout: float | None = None):
        return self.inner.recv(source, tag, timeout=timeout)

    def allreduce(self, value, op: str = "sum"):
        return self.inner.allreduce(value, op)

    def bcast(self, obj, root: int = 0):
        return self.inner.bcast(obj, root)

    def gather(self, obj, root: int = 0):
        return self.inner.gather(obj, root)

    def allgather(self, obj) -> list:
        return self.inner.allgather(obj)

    def barrier(self) -> None:
        self.inner.barrier()
