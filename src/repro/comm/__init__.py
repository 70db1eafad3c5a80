"""SPMD communication substrate.

The paper runs TeaLeaf over MPI on up to 8192 nodes.  mpi4py is unavailable
in this environment, so this package provides an in-process stand-in with an
mpi4py-flavoured API:

- :class:`SerialComm` — the trivial single-rank world;
- :class:`ThreadComm` / :class:`ThreadWorld` — a real SPMD world where each
  rank is a Python thread; point-to-point messages and collective
  contributions go through matched FIFO mailboxes, so every distributed
  algorithm (halo exchange at any depth, reduction placement, matrix powers)
  executes genuinely decomposed;
- :class:`ForwardingComm` — the base every wrapper derives from: it forwards
  all primitives to ``inner``, so a wrapper defines only what it intercepts;
- :class:`InstrumentedComm` — a transparent wrapper counting messages, bytes
  and reductions into an :class:`~repro.utils.events.EventLog`, feeding the
  performance model;
- :func:`launch_spmd` — run one function per rank and collect results,
  propagating failures without deadlocking survivors;
- :class:`SanitizerComm` / :class:`SanitizerState` — a runtime SPMD
  sanitizer wrapper that turns divergent collectives, point-to-point
  races and deadlocks into structured
  :class:`~repro.utils.errors.SanitizerError` reports naming the
  offending call-sites.
"""

from repro.comm.base import Communicator, ForwardingComm, REDUCE_OPS
from repro.comm.serial import SerialComm
from repro.comm.threaded import ThreadComm, ThreadWorld
from repro.comm.instrument import (RECOVERY_KIND, RETRY_KIND, EventWindow,
                                   InstrumentedComm)
from repro.comm.sanitize import SanitizerComm, SanitizerState
from repro.comm.spmd import launch_spmd
from repro.utils.errors import SanitizerError

__all__ = [
    "Communicator",
    "ForwardingComm",
    "REDUCE_OPS",
    "RECOVERY_KIND",
    "RETRY_KIND",
    "SanitizerComm",
    "SanitizerError",
    "SanitizerState",
    "SerialComm",
    "ThreadComm",
    "ThreadWorld",
    "EventWindow",
    "InstrumentedComm",
    "launch_spmd",
]
