"""Turn-key resilient solves: stack assembly and benchmark runs.

Two conveniences live here:

- :func:`build_resilient_comm` assembles the canonical communicator stack
  ``InstrumentedComm(RetryingComm(FaultyComm(base)))`` and returns all the
  layers so callers can inspect fault logs, retry counts and the virtual
  clock afterwards;
- :func:`run_resilient` runs one :class:`~repro.solvers.SolverOptions`
  configuration on the crooked-pipe benchmark system through that stack —
  the rank program (:func:`~repro.solvers.ranks.solve_on_ranks`) with
  :func:`build_resilient_comm` as its stack factory, serial or genuinely
  decomposed over the thread SPMD world — and returns a
  :class:`ResilienceReport` whose fault-event log is deterministically
  ordered, so two runs with the same plan and seed compare equal
  event-for-event.  The options are the one place its defences are
  chosen: ``integrity`` (deck ``tl_enable_checksums``) arms the checksum
  layer and ``recovery`` (deck ``tl_enable_recovery``) the rank-loss
  recovery loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.comm import InstrumentedComm
from repro.comm.base import Communicator
from repro.physics.state import crooked_pipe_system
from repro.resilience.faults import FaultEvent, FaultPlan, FaultyComm, IterationCell
from repro.resilience.guard import GuardEvent
from repro.resilience.integrity import ChecksumComm
from repro.resilience.recovery import (RecoveryEvent, drop_rank_windows,
                                       fatal_window)
from repro.resilience.retry import RetryingComm, VirtualClock
from repro.solvers import SolverOptions
from repro.solvers.ranks import Stack, solve_on_ranks
from repro.solvers.result import SolveResult
from repro.utils.errors import CheckpointError, CommunicationError
from repro.utils.events import EventLog, recovery_scope

#: Per-attempt receive timeout (seconds) used by the resilient stack; the
#: thread world polls every 20 ms, so this rides out scheduling noise while
#: still turning a genuinely dropped message into an error promptly.
DEFAULT_RECV_TIMEOUT_S = 5.0


@dataclass(kw_only=True)
class ResilientStack(Stack):
    """The assembled communicator layers, innermost to outermost: ``comm``
    is the :class:`~repro.comm.instrument.InstrumentedComm` on top,
    ``events`` the log every layer records into, ``cell`` the
    :class:`~repro.resilience.faults.IterationCell` fault events are
    stamped with."""

    faulty: FaultyComm
    retrying: RetryingComm
    clock: VirtualClock
    checksum: ChecksumComm | None = None
    #: the collective checkpoint iteration a ``resume`` restored (-1: none)
    resumed: int = -1


def build_resilient_comm(base: Communicator,
                         plan: FaultPlan,
                         *,
                         events: EventLog | None = None,
                         max_attempts: int = 5,
                         recv_timeout: float | None = DEFAULT_RECV_TIMEOUT_S,
                         integrity: bool = False,
                         cancel=None) -> ResilientStack:
    """Wrap ``base`` in the canonical resilient stack.

    The order matters: the instrument layer is outermost so its counts are
    logical (first-attempt) operation counts no matter how many times the
    retry layer re-issues — which is what keeps the COMM_CONTRACT verifier
    oblivious to legal retries (see
    :data:`repro.comm.instrument.RETRY_KIND`).

    With ``integrity=True`` a :class:`ChecksumComm` is inserted between
    the retry and fault layers — detections surface as retryable
    :class:`~repro.utils.errors.ChecksumError` *below* the retry layer
    while the instrument layer still sees one logical op, so contract
    counts are unchanged.
    """
    log = events if events is not None else EventLog()
    clock, cell = VirtualClock(), IterationCell()
    faulty = FaultyComm(base, plan, events=log, clock=clock, iteration=cell)
    inner: Communicator = faulty
    checksum = None
    if integrity:
        checksum = ChecksumComm(faulty, events=log)
        inner = checksum
    retrying = RetryingComm(inner, max_attempts=max_attempts,
                            clock=clock, events=log,
                            recv_timeout=recv_timeout,
                            cancel=cancel)
    outer = InstrumentedComm(retrying, log)
    return ResilientStack(faulty=faulty, retrying=retrying, comm=outer,
                          clock=clock, cell=cell, events=log,
                          checksum=checksum)


@dataclass
class ResilienceReport:
    """Outcome of one resilient benchmark solve.

    ``fault_events`` is sorted by ``(rank, op_index)`` — a total order that
    is identical between same-seed runs, so reports can be compared with
    ``==`` on this field to assert reproducibility.
    """

    converged: bool
    iterations: int
    residual_norm: float
    relative_residual: float
    fault_events: list = field(default_factory=list)
    guard_events: list = field(default_factory=list)
    retries: int = 0
    rollbacks: int = 0
    checkpoints: int = 0
    virtual_time_s: float = 0.0
    degraded: bool = False
    result: SolveResult | None = None
    x: np.ndarray | None = None
    recoveries: int = 0
    recovery_events: list = field(default_factory=list)
    resumed_iteration: int = -1
    integrity_detections: int = 0
    integrity_repairs: int = 0
    #: merged per-rank EventLog of the whole run; the chaos oracle reads
    #: the rerouted kinds (RETRY_KIND, RECOVERY_KIND, ...) out of this.
    events: EventLog | None = None

    def summary(self) -> str:
        status = "converged" if self.converged else "NOT converged"
        return (f"{status} in {self.iterations} iters "
                f"(rel res {self.relative_residual:.3e}); "
                f"{len(self.fault_events)} fault(s), {self.retries} "
                f"retrie(s), {self.rollbacks} rollback(s)"
                + (f", {self.recoveries} recover(ies)" if self.recoveries
                   else "")
                + (", degraded" if self.degraded else ""))


def run_resilient(options: SolverOptions,
                  plan: FaultPlan,
                  *,
                  n: int = 32,
                  size: int = 1,
                  max_attempts: int = 5,
                  recv_timeout: float | None = DEFAULT_RECV_TIMEOUT_S,
                  checkpoint_dir=None,
                  resume: bool | str = False,
                  max_recoveries: int = 2,
                  cancel=None,
                  setup=None) -> ResilienceReport:
    """Solve the ``n``×``n`` crooked-pipe system through the fault stack.

    Builds the benchmark's first-implicit-step system and hands it to the
    rank program (:func:`~repro.solvers.ranks.solve_on_ranks`, serial for
    ``size == 1``) with :func:`build_resilient_comm` as the stack factory;
    it solves with ``options`` — guard and degradation behaviour included
    when the options enable them (``guard_interval > 0``).

    The options choose the defences: ``integrity`` adds the
    :class:`ChecksumComm` layer, and ``recovery`` survives rank loss —
    when an attempt dies of a crash window the retry budget cannot
    absorb, the failed rank is respawned and the solve resumes from the
    last collective checkpoint of the durable shards in
    ``options.checkpoint_dir``, up to ``max_recoveries`` times (the
    protocol is in :mod:`repro.resilience.recovery`).  The report then
    carries ``recoveries``/``recovery_events``.  A failure no fatal
    window explains, or one past the budget, is raised unchanged.

    With a ``checkpoint_dir`` the guard persists every snapshot to a
    per-rank durable shard; ``resume=True`` then restores from those
    shards before solving: the ranks vote (min over per-rank shard
    iterations, an allreduce under the recovery scope) on the collective
    checkpoint to resume from, rebuild ``x0`` from their saved state, and
    refresh halos from their neighbours — the comm traffic of all of
    which lands under :data:`~repro.utils.events.RECOVERY_KIND`.

    ``resume="exact"`` goes further: instead of a warm ``x0`` restart it
    continues the CG recurrence *bit-exactly* from the snapshot (fields
    ``x``/``r``/``p`` plus the recurrence scalars), as if the crash had
    been a guard rollback.  Exact resume requires unanimous shards —
    every rank holds a complete snapshot at the *same* iteration
    (min == max in the vote) — plus ``solver="cg"``, no fault plan and
    ``replace_interval=0``; when any condition fails (including a
    corrupt shard, which votes "no checkpoint" instead of raising) the
    solve deterministically restarts from scratch, so either way the
    result is bit-identical to an uninterrupted run.

    ``cancel`` (a :class:`~repro.service.cancel.CancelToken`-like object)
    is shared by every rank: it is checked at solver iteration
    boundaries and polled between retry attempts, so a fired token
    aborts all ranks coherently.  ``setup`` is a
    :class:`~repro.solvers.driver.SolveSetup` of cached expensive
    artifacts.  When ``options.comm_timeout`` is positive it overrides
    the ``recv_timeout`` argument (deck/CLI knob wins over library
    default).
    """
    grid, *faces, bg = crooked_pipe_system(n)
    if options.recovery:
        checkpoint_dir = options.checkpoint_dir

    def attempt(plan: FaultPlan, resume) -> ResilienceReport:
        restore = partial(_restore_from_shards, options=options, plan=plan,
                          exact=resume == "exact") if resume else None
        run = solve_on_ranks(
            grid, faces, bg, options, size,
            stack=lambda comm, timeout: build_resilient_comm(
                comm, plan, max_attempts=max_attempts,
                recv_timeout=timeout or recv_timeout,
                integrity=options.integrity, cancel=cancel),
            cancel=cancel, setup=setup, checkpoint_dir=checkpoint_dir,
            before_solve=restore)
        return _report(run)

    if not options.recovery:
        return attempt(plan, resume)
    recovery_events: list[RecoveryEvent] = []
    while True:
        try:
            report = attempt(plan, resume)
            break
        except CommunicationError:
            window = fatal_window(plan, max_attempts)
            if window is None or len(recovery_events) >= max_recoveries:
                raise
            recovery_events.append(RecoveryEvent(
                attempt=len(recovery_events),
                failed_rank=window.rank,
                window_start=window.start,
                detail=(f"window length {window.length} >= retry budget "
                        f"{max_attempts}; respawned from last durable "
                        f"checkpoint")))
            plan = drop_rank_windows(plan, window.rank)
            resume = True
    report.recoveries = len(recovery_events)
    report.recovery_events = recovery_events
    return report


def _report(run) -> ResilienceReport:
    """One finished attempt's :class:`ResilienceReport`, merged over the
    ranks of ``run``."""
    faults: list[FaultEvent] = []
    guard_log: list[GuardEvent] = []
    retries = rollbacks = checkpoints = 0
    detections = repairs = 0
    vtime = 0.0
    for _tile, _result, stack, guard in run.ranks:
        faults.extend(stack.faulty.log)
        retries += stack.retrying.retries
        vtime = max(vtime, stack.clock.now)
        if stack.checksum is not None:
            detections += stack.checksum.detections
            repairs += stack.checksum.repairs
        if guard is not None:
            guard_log.extend(guard.log)
            rollbacks += guard.rollbacks
            checkpoints += guard.checkpoints
    faults.sort(key=lambda ev: (ev.rank, ev.op_index))

    r0 = run.result
    # Reference for the relative residual: the solve's *first* recorded
    # norm (for PPCG/Chebyshev that's the warm-up start, which is what
    # the eps criterion is relative to; ``initial_residual_norm`` would
    # be the post-warm-up phase residual).
    reference = r0.history[0] if r0.history else r0.initial_residual_norm
    rel = r0.residual_norm / reference if reference else float("inf")
    return ResilienceReport(
        converged=r0.converged,
        iterations=r0.iterations,
        residual_norm=r0.residual_norm,
        relative_residual=rel,
        fault_events=faults,
        guard_events=guard_log,
        retries=retries,
        rollbacks=rollbacks,
        checkpoints=checkpoints,
        virtual_time_s=vtime,
        degraded=bool(getattr(r0, "degraded", False)),
        result=r0,
        x=run.x,
        resumed_iteration=run.ranks[0].stack.resumed,
        integrity_detections=detections,
        integrity_repairs=repairs,
        events=EventLog.merged(rank.stack.events for rank in run.ranks),
    )


def _restore_from_shards(op, stack: ResilientStack, store, *,
                         options: SolverOptions, plan: FaultPlan,
                         exact: bool) -> dict:
    """The ``before_solve`` hook of a resuming :func:`run_resilient`: vote
    on the collective checkpoint the ranks' durable shards can satisfy and
    return the solve's starting point from it — a warm ``x0``, or with
    ``exact`` the whole CG recurrence as ``resume_state`` — leaving the
    agreed iteration in ``stack.resumed``.  Nothing restorable returns
    ``{}``: the solve starts from scratch."""
    rank = stack.comm.rank
    if store is None:
        # uniform across ranks (it follows checkpoint_dir), so no rank
        # is left alone in the votes below
        raise CheckpointError("resume requires a checkpoint_dir")
    if exact:
        try:
            loaded = store.load()
        except CheckpointError:
            # A corrupt or foreign shard must degrade recovery
            # (vote "no checkpoint"), not abort it.
            loaded = None
    else:
        loaded = store.load()
    # Exact continuation is only sound when nothing perturbs the
    # replayed recurrence; the conditions are uniform across
    # ranks, so every rank takes the same branch.
    exact_eligible = (exact and options.solver == "cg"
                      and options.replace_interval == 0
                      and (plan is None or not plan.active()))
    complete = (loaded is not None
                and all(k in loaded[1] for k in ("x", "r", "p"))
                and all(k in loaded[2]
                        for k in ("rz", "rr", "pa", "reference")))
    start = {}
    with recovery_scope(stack.events):
        # Failure vote: every rank contributes its durable shard's
        # iteration (-1 = no shard); the min is the collective
        # checkpoint all ranks can satisfy.  Float-typed so the
        # injector's corruption model applies to it like any
        # other reduction.
        if exact:
            mine = float(loaded[0]) if complete else -1.0
        else:
            mine = float(loaded[0]) if loaded is not None else -1.0
        lowest = int(stack.comm.allreduce(mine, "min"))
        if exact:
            # Unanimity vote: exact continuation needs every rank
            # at the *same* snapshot iteration; shard skew (a
            # SIGKILL mid-save) falls back to a from-scratch
            # re-solve, which is equally bit-identical to the
            # uninterrupted run.
            highest = int(stack.comm.allreduce(mine, "max"))
            if exact_eligible and 0 <= lowest == highest:
                saved_x = loaded[1]["x"]
                probe = op.new_field()
                if saved_x.shape != probe.data.shape:
                    raise CheckpointError(
                        f"rank {rank}: saved solver state is "
                        f"{saved_x.shape}, tile needs "
                        f"{probe.data.shape}")
                stack.resumed = lowest
                start["resume_state"] = {"iteration": int(loaded[0]),
                                         "arrays": loaded[1],
                                         "scalars": loaded[2]}
        elif lowest >= 0:
            stack.resumed = lowest
            saved_x = loaded[1].get("x")
            if saved_x is not None:
                x0 = op.new_field()
                if saved_x.shape != x0.data.shape:
                    raise CheckpointError(
                        f"rank {rank}: saved solver state is "
                        f"{saved_x.shape}, tile needs "
                        f"{x0.data.shape}")
                x0.data[...] = saved_x
                # Neighbour halo refresh: the replacement rank's
                # reconstructed subdomain gets live boundary data.
                op.exchanger.exchange([x0], depth=1)
                start["x0"] = x0
    return start
