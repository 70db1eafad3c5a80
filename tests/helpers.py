"""Shared construction helpers for the test-suite.

These now live in the public :mod:`repro.testing` module (so downstream
users get the same scaffolding); this module re-exports them for the
test-suite's imports.
"""

from repro.testing import (  # noqa: F401
    crooked_pipe_jump_system,
    crooked_pipe_system,
    distributed_solve,
    random_spd_faces,
    reference_solution,
    serial_operator,
)

import hashlib
import struct

from repro.comm import SerialComm


def history_sha(history) -> str:
    """Short sha256 of a residual history's exact float64 bit patterns."""
    return hashlib.sha256(
        b"".join(struct.pack("<d", h) for h in history)).hexdigest()[:16]


def bits(a):
    """``a``'s cells as unsigned integers: equality of these is equality
    of bit patterns (NaN payloads and the sign of zero included)."""
    return a.view(f"u{a.itemsize}")


class ScriptedComm(SerialComm):
    """Serial comm applying ``script[k]`` to the k-th allreduce result
    (1-based): a deterministic way to corrupt one named reduction."""

    def __init__(self, script):
        self.script, self.calls = script, 0

    def allreduce(self, value, op="sum"):
        self.calls += 1
        out = super().allreduce(value, op)
        fn = self.script.get(self.calls)
        return out if fn is None else fn(out)


__all__ = [
    "ScriptedComm",
    "bits",
    "crooked_pipe_jump_system",
    "crooked_pipe_system",
    "distributed_solve",
    "history_sha",
    "random_spd_faces",
    "reference_solution",
    "serial_operator",
]
