"""The rank program: the one road from a global system to its solution.

Every harness that solves a global system on the in-process SPMD world —
``repro solve`` and ``repro trace``, :func:`~repro.observe.runner.traced_solve`,
:func:`~repro.resilience.runner.run_resilient` (and through it the solve
service), the contract verifier, the perfmodel's iteration measurements,
:func:`repro.testing.distributed_solve` — calls :func:`solve_on_ranks`.
Per rank, :func:`rank_program` decomposes the grid, lets the caller's
*stack factory* wrap the raw communicator, builds the operator from the
global face arrays, scatters ``b`` and calls
:func:`~repro.solvers.driver.solve_linear`; the launcher gathers the global
``x``.  What differs between harnesses is the stack they ask for and what
they read off the outcome, nothing else.

It is also the single reader of the options that shape the world and the
stack: ``required_field_halo``, ``comm_timeout`` (the world's receive
timeout *and* the stack's retry layer) and ``guard_interval`` (the guard
shares the stack's iteration cell and the durable store).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from repro.comm.base import Communicator
from repro.comm.instrument import InstrumentedComm
from repro.comm.serial import SerialComm
from repro.comm.spmd import launch_spmd
from repro.mesh.decomposition import Tile, decompose
from repro.mesh.field import Field
from repro.solvers.driver import solve_linear
from repro.solvers.operator import StencilOperator
from repro.solvers.options import SolverOptions
from repro.solvers.result import SolveResult
from repro.utils.events import EventLog


@dataclass
class Stack:
    """What a stack factory ``(raw comm, recv_timeout) -> Stack`` returns:
    the communicator the solve talks through and the observers riding on
    it.  ``recv_timeout`` is ``options.comm_timeout`` (``None`` when unset),
    for a factory with a retry layer to land on it."""

    comm: Communicator
    #: shared with the operator and exchanger (``None``: they keep their own)
    events: EventLog | None = None
    tracer: object | None = None
    #: iteration cell a fault injector stamps its log with; the guard
    #: advances it
    cell: object | None = None


def instrumented_stack(comm: Communicator, recv_timeout=None,
                       tracer=None) -> Stack:
    """The counting stack: an :class:`InstrumentedComm` whose event log
    (and tracer, if any) the operator shares.  It has no retry layer, so
    ``recv_timeout`` goes unused."""
    log = EventLog()
    return Stack(InstrumentedComm(comm, log, tracer=tracer), log, tracer)


def serial_operator(grid, *faces: np.ndarray, halo: int = 1
                    ) -> StencilOperator:
    """A one-rank operator over the whole grid, from its global face
    arrays ``kx, ky[, kz]`` — for work on a system outside a solve (a
    referee's residual, a preconditioner built ahead of time)."""
    tile = decompose(grid, 1)[0]
    return StencilOperator.from_global_faces(tile, halo, *faces, SerialComm())


class RankOutcome(NamedTuple):
    """What one rank hands back."""

    tile: Tile
    result: SolveResult
    stack: Stack
    guard: object | None


@dataclass
class RanksRun:
    """A finished :func:`solve_on_ranks`: the gathered global solution and
    every rank's :class:`RankOutcome` (index = rank)."""

    x: np.ndarray
    ranks: list[RankOutcome]

    @property
    def result(self) -> SolveResult:
        """Rank 0's result (iteration counts and residuals are global)."""
        return self.ranks[0].result

    @property
    def events(self) -> EventLog | None:
        """Rank 0's event log (``None`` on a stack that keeps none)."""
        return self.ranks[0].stack.events


def rank_program(comm: Communicator, grid, faces, bg, options: SolverOptions,
                 *, factors=None, stack: Callable | None = None,
                 cancel=None, setup=None, checkpoint_dir=None,
                 before_solve: Callable | None = None) -> RankOutcome:
    """One rank's share of ``A x = b``; see :func:`solve_on_ranks`."""
    stk = (stack(comm, options.comm_timeout or None) if stack is not None
           else Stack(comm))
    tile = decompose(grid, comm.size, factors)[comm.rank]
    halo = options.required_field_halo
    op = StencilOperator.from_global_faces(
        tile, halo, *faces, stk.comm, events=stk.events, tracer=stk.tracer)
    b = Field.from_global(tile, halo, bg)
    store = guard = None
    if checkpoint_dir is not None:
        from repro.resilience.checkpoint import SolverCheckpointStore
        store = SolverCheckpointStore(Path(checkpoint_dir), comm.rank)
    if options.guard_interval > 0:
        from repro.resilience.guard import SolverGuard
        guard = SolverGuard.from_options(options, stk.cell, store)
    start = before_solve(op, stk, store) if before_solve is not None else {}
    result = solve_linear(op, b, options=options, guard=guard, cancel=cancel,
                          setup=setup, **start)
    return RankOutcome(tile, result, stk, guard)


def solve_on_ranks(grid, faces, bg, options: SolverOptions, size: int = 1,
                   **rank_kw) -> RanksRun:
    """Solve the global system ``(faces, bg)`` on a ``size``-rank world.

    ``faces`` are the global face coefficient arrays ``(kx, ky[, kz])`` and
    ``bg`` the global right-hand side, as
    :func:`~repro.physics.state.first_step_system` returns them; ``grid``
    is the :class:`~repro.mesh.grid.Grid2D`/``Grid3D`` they live on.

    Keywords, all optional: ``factors`` overrides the process-grid layout
    ``(px, py[, pz])``.  ``stack`` is the stack factory (see :class:`Stack`;
    ``None`` solves on the bare communicator, :func:`instrumented_stack`
    counts, :func:`~repro.resilience.runner.build_resilient_comm` injects
    and retries).  ``cancel`` and ``setup`` go to
    :func:`~repro.solvers.driver.solve_linear` on every rank.
    ``checkpoint_dir`` makes the guard's snapshots durable (one
    :class:`~repro.resilience.checkpoint.SolverCheckpointStore` shard per
    rank).  ``before_solve(op, stack, store)`` runs on every rank once the
    operator exists and returns the solve's starting point as
    ``solve_linear`` keywords (``x0``, ``resume_state``) — where
    :func:`~repro.resilience.runner.run_resilient` restores from shards.
    """
    out = launch_spmd(
        partial(rank_program, grid=grid, faces=faces, bg=bg, options=options,
                **rank_kw),
        size, recv_timeout=options.comm_timeout or None)
    x = np.zeros(grid.shape)
    for rank in out:
        x[rank.tile.global_slices] = rank.result.x.interior
    return RanksRun(x, out)
