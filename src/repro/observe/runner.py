"""Traced solve drivers and metrics recorders.

This is the convenience layer the CLI (``repro trace``), the harness
report and the test-suite share: build a fully instrumented solve — one
:class:`~repro.observe.trace.Tracer` per rank, an
:class:`~repro.comm.instrument.InstrumentedComm` event log, and the
stencil operator with the tracer threaded through — run it over the
in-process SPMD world, and hand back everything an exporter or test
oracle needs in one :class:`TraceRun`.

Determinism: pass ``clock_factory=lambda rank: VirtualClock(tick=1e-6)``
and two identical runs produce byte-identical JSONL traces (the
invariant ``tests/test_observe.py`` locks down).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.observe.metrics import ITERATION_BUCKETS, MetricsRegistry
from repro.observe.trace import Span, Tracer, sort_spans

__all__ = [
    "TraceRun",
    "traced_solve",
    "traced_crooked_pipe",
    "record_solve_metrics",
    "record_resilience_metrics",
    "record_stability_metrics",
    "record_chaos_metrics",
]


@dataclass
class TraceRun:
    """Everything one traced solve produced."""

    result: object                 # rank-0 SolveResult
    tracers: list                  # one Tracer per rank (index = rank)
    events: object                 # rank-0 EventLog
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    @property
    def spans(self) -> list[Span]:
        """All ranks' finished spans merged in canonical order."""
        merged: list[Span] = []
        for t in self.tracers:
            merged.extend(t.finished())
        return sort_spans(merged)


def traced_solve(grid, *system, size: int = 1, clock_factory=None,
                 capacity: int = 1 << 16) -> TraceRun:
    """The rank program (:func:`~repro.solvers.ranks.solve_on_ranks`) with a
    :class:`Tracer` per rank on the instrumented stack, called as
    ``traced_solve(grid, kx, ky[, kz], b, options, size=...)``.

    ``clock_factory``: optional ``rank -> callable`` producing each
    tracer's clock (default: wall ``time.perf_counter``).
    """
    from repro.solvers.ranks import instrumented_stack, solve_on_ranks

    *faces, bg, options = system

    def stack(comm, recv_timeout):
        clock = clock_factory(comm.rank) if clock_factory is not None \
            else None
        return instrumented_stack(comm, tracer=Tracer(
            clock=clock, rank=comm.rank, capacity=capacity))

    ranks = solve_on_ranks(grid, faces, bg, options, size, stack=stack)
    run = TraceRun(result=ranks.result, events=ranks.events,
                   tracers=[rank.stack.tracer for rank in ranks.ranks])
    record_solve_metrics(run.metrics, run.result, run.events)
    return run


def traced_crooked_pipe(n: int = 24, options=None, **kwargs) -> TraceRun:
    """Traced solve of the crooked-pipe first implicit step (CG default)."""
    from repro.physics.state import crooked_pipe_system
    from repro.solvers import SolverOptions

    if options is None:
        options = SolverOptions(solver="cg")
    return traced_solve(*crooked_pipe_system(n), options, **kwargs)


def record_solve_metrics(registry: MetricsRegistry, result, events) -> None:
    """Fill ``registry`` from a solve result plus its event log.

    Recorded names (the schema the harness/tests consume):

    - counters ``solve.iterations``, ``solve.inner_iterations``,
      ``solve.allreduces``, ``solve.halo_exchanges``, ``solve.retries``;
    - gauges ``solve.residual_norm``, ``solve.converged`` (0/1);
    - histogram ``solve.iterations_hist`` on :data:`ITERATION_BUCKETS`;
    - counter ``comm.halo_bytes`` (total exchanged payload).
    """
    from repro.comm.instrument import RETRY_KIND

    registry.counter("solve.iterations").inc(result.iterations)
    registry.counter("solve.inner_iterations").inc(result.inner_iterations)
    registry.counter("solve.allreduces").inc(events.count_kind("allreduce"))
    registry.counter("solve.halo_exchanges").inc(
        events.count_kind("halo_exchange"))
    registry.counter("solve.retries").inc(events.count_kind(RETRY_KIND))
    registry.counter("comm.halo_bytes").inc(
        int(events.total("halo_exchange", "bytes")))
    registry.gauge("solve.residual_norm").set(result.residual_norm)
    registry.gauge("solve.converged").set(1.0 if result.converged else 0.0)
    registry.histogram("solve.iterations_hist",
                       ITERATION_BUCKETS).observe(result.iterations)


def record_resilience_metrics(registry: MetricsRegistry, report) -> None:
    """Fill ``registry`` from one :class:`ResilienceReport`.

    The counters mirror the cell schema of
    :meth:`~repro.harness.resilience_sweep.ResilienceSweepResult.as_dict`,
    which is how the test-suite uses this as an independent oracle.
    """
    registry.counter("resilience.iterations").inc(report.iterations)
    registry.counter("resilience.faults").inc(len(report.fault_events))
    registry.counter("resilience.retries").inc(report.retries)
    registry.counter("resilience.rollbacks").inc(report.rollbacks)
    registry.counter("resilience.checkpoints").inc(report.checkpoints)
    registry.counter("resilience.recoveries").inc(report.recoveries)
    registry.counter("resilience.integrity_detections").inc(
        report.integrity_detections)
    registry.counter("resilience.integrity_repairs").inc(
        report.integrity_repairs)
    registry.gauge("resilience.relative_residual").set(
        report.relative_residual)
    registry.gauge("resilience.converged").set(
        1.0 if report.converged else 0.0)
    registry.gauge("resilience.degraded").set(
        1.0 if report.degraded else 0.0)
    registry.gauge("resilience.virtual_time_s").set(report.virtual_time_s)


def record_chaos_metrics(registry: MetricsRegistry, campaign) -> None:
    """Fill ``registry`` from one :class:`ChaosCampaignResult`.

    The counters mirror the per-class aggregates of the ``CHAOS_<n>.json``
    ledger (:meth:`~repro.resilience.chaos.ChaosCampaignResult.class_stats`),
    which is how the test-suite uses this as an independent oracle for the
    campaign's SLO accounting.  Per-class counters are suffixed with the
    fault class, e.g. ``chaos.converged.transient``.
    """
    registry.counter("chaos.trials").inc(len(campaign.results))
    registry.counter("chaos.oracle_violations").inc(
        len(campaign.oracle_violations))
    registry.counter("chaos.budget_violations").inc(
        len(campaign.budget_violations()))
    registry.gauge("chaos.passed").set(1.0 if campaign.passed else 0.0)
    for cls, s in campaign.class_stats().items():
        registry.counter(f"chaos.converged.{cls}").inc(s["converged"])
        registry.counter(f"chaos.failed.{cls}").inc(s["failed"])
        registry.counter(f"chaos.aborted.{cls}").inc(s["aborted"])
        registry.counter(f"chaos.retries.{cls}").inc(s["retries"])
        registry.counter(f"chaos.rollbacks.{cls}").inc(s["rollbacks"])
        registry.counter(f"chaos.recoveries.{cls}").inc(s["recoveries"])
        registry.gauge(f"chaos.recovery_rate.{cls}").set(s["recovery_rate"])
        registry.gauge(f"chaos.virtual_time_s.{cls}").set(
            s["virtual_time_s"])


def record_stability_metrics(registry: MetricsRegistry, cell) -> None:
    """Fill ``registry`` from one :class:`StabilityCell`.

    The counters mirror the cell schema of
    :meth:`~repro.harness.stability_sweep.StabilitySweepResult.as_dict`,
    which is how the test-suite uses this as an independent oracle for
    the stability sweep's numerics accounting.
    """
    registry.counter("stability.iterations").inc(cell.iterations)
    registry.counter("stability.total_iterations").inc(cell.total_iterations)
    registry.counter("stability.replacement_checks").inc(
        cell.replacement_checks)
    registry.counter("stability.replacement_splices").inc(
        cell.replacement_splices)
    registry.counter("stability.refinement_steps").inc(cell.refinement_steps)
    registry.counter("stability.breakdowns").inc(1 if cell.breakdown else 0)
    registry.gauge("stability.true_residual").set(cell.true_residual)
    registry.gauge("stability.recurrence_residual").set(
        cell.recurrence_residual)
    registry.gauge("stability.drift_orders").set(cell.drift_orders)
    registry.gauge("stability.converged").set(1.0 if cell.converged else 0.0)
    registry.gauge("stability.escalated").set(1.0 if cell.escalated else 0.0)
