"""The trivial single-rank communicator.

Serial runs are the correctness reference: every distributed configuration is
tested against the same solve on a :class:`SerialComm` world.
"""

from __future__ import annotations

from repro.comm.base import Communicator, isolate, reduce_in_rank_order
from repro.utils.errors import CommunicationError


class SerialComm(Communicator):
    """A world of exactly one rank; collectives are identities."""

    rank = 0
    size = 1

    def send(self, obj, dest: int, tag: int = 0) -> None:
        raise CommunicationError("SerialComm has no peers to send to")

    def recv(self, source: int, tag: int = 0, timeout: float | None = None):
        raise CommunicationError("SerialComm has no peers to receive from")

    def allreduce(self, value, op: str = "sum"):
        return reduce_in_rank_order([value], op)

    def bcast(self, obj, root: int = 0):
        self._check_root(root)
        return obj

    def gather(self, obj, root: int = 0):
        self._check_root(root)
        return [obj]

    def allgather(self, obj) -> list:
        return [isolate(obj)]

    def barrier(self) -> None:
        return None

    @staticmethod
    def _check_root(root: int) -> None:
        if root != 0:
            raise CommunicationError(f"root {root} invalid for world of size 1")
