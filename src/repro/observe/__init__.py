"""repro.observe — per-rank tracing, metrics and profiling hooks.

Observability for the solver design space (docs/observability.md):

- :mod:`~repro.observe.trace` — nested spans (``step > solve >
  iteration > {stencil, halo_exchange, allreduce, precond}``) with
  per-rank ids, monotonic timestamps from a pluggable clock and a
  bounded ring buffer; the disabled path (:data:`NULL_TRACER`) adds no
  per-iteration allocations;
- :mod:`~repro.observe.metrics` — counters, gauges and fixed-bucket
  histograms with a ``snapshot()`` dict API;
- :mod:`~repro.observe.export` — JSONL, Chrome ``trace_event`` and text
  summaries;
- :mod:`~repro.observe.hooks` — :func:`attach_tracer`;
- :mod:`~repro.observe.runner` — one-call traced solves for the CLI,
  harness and tests.
"""

from repro.observe.export import (
    chrome_trace,
    jsonl_lines,
    metrics_table,
    self_times,
    summary_table,
    write_chrome_trace,
    write_jsonl,
)
from repro.observe.hooks import attach_tracer
from repro.observe.metrics import (
    BYTE_BUCKETS,
    ITERATION_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.observe.runner import (
    TraceRun,
    record_chaos_metrics,
    record_resilience_metrics,
    record_solve_metrics,
    record_stability_metrics,
    traced_crooked_pipe,
    traced_solve,
)
from repro.observe.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    sort_spans,
)

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "sort_spans",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ITERATION_BUCKETS",
    "BYTE_BUCKETS",
    "attach_tracer",
    "jsonl_lines",
    "write_jsonl",
    "chrome_trace",
    "write_chrome_trace",
    "self_times",
    "summary_table",
    "metrics_table",
    "TraceRun",
    "traced_solve",
    "traced_crooked_pipe",
    "record_solve_metrics",
    "record_chaos_metrics",
    "record_resilience_metrics",
    "record_stability_metrics",
]
