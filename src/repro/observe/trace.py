"""Per-rank span tracing with bounded buffers and a pluggable clock.

A :class:`Tracer` records **spans** — named, nested intervals such as
``step > solve > iteration > {stencil, halo_exchange, allreduce,
precond}`` — into a bounded in-memory ring buffer.  Timestamps come from
a pluggable zero-argument clock (default :func:`time.perf_counter`);
passing a :class:`~repro.resilience.retry.VirtualClock` with a non-zero
``tick`` makes every trace of a deterministic run byte-identical, which
is how the invariant test-suite pins nesting/monotonicity/determinism.

Instrumentation sites throughout the solvers, the halo exchanger and the
instrumented communicator call ``tracer.span(name, key)`` in their hot
loops.  When tracing is off they hold the shared :data:`NULL_TRACER`,
whose ``span`` returns one preallocated no-op context manager — the
disabled hot path performs **zero allocations** (asserted by
``tests/test_observe.py`` via ``tracemalloc``), so instrumentation can
stay permanently compiled into the iteration loops.

Span attributes are deliberately a single hashable ``key`` (mirroring
:class:`~repro.utils.events.EventLog`'s ``(kind, key)`` buckets) rather
than ``**kwargs``: keyword calls would allocate an argument dict even on
the disabled path.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER", "sort_spans",
           "tracer_of"]


@dataclass(frozen=True)
class Span:
    """One finished, immutable span.

    ``span_id`` is assigned at entry in creation order (per tracer), so
    sorting by it recovers the call order; ``parent_id`` is ``-1`` for
    roots.  ``depth`` is the nesting level (0 for roots).
    """

    name: str
    key: Any
    rank: int
    span_id: int
    parent_id: int
    depth: int
    t_start: float
    t_end: float

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def as_dict(self) -> dict:
        """JSON-ready mapping (stable keys; see exporters)."""
        return {
            "name": self.name,
            "key": self.key,
            "rank": self.rank,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "t_start": self.t_start,
            "t_end": self.t_end,
        }


class _NullSpan:
    """The shared no-op context manager the disabled tracer hands out."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: every ``span()`` is the same preallocated no-op.

    Kept stateless and shared (:data:`NULL_TRACER`) so holding it as a
    default costs nothing and the hot path never allocates.
    """

    __slots__ = ()

    enabled = False
    rank = -1
    dropped = 0

    def span(self, name: str, key: Any = None) -> _NullSpan:
        return _NULL_SPAN

    def finished(self) -> tuple:
        return ()

    def counts(self) -> dict:
        return {}

    def clear(self) -> None:
        return None


NULL_TRACER = NullTracer()


def tracer_of(obj) -> "Tracer | NullTracer":
    """The tracer installed on ``obj``, or :data:`NULL_TRACER`.

    Solvers fetch their tracer this way so operator-like objects that
    never grew a ``tracer`` attribute (multigrid levels,
    test doubles) keep working untraced.
    """
    t = getattr(obj, "tracer", None)
    return t if t is not None else NULL_TRACER


class _ActiveSpan:
    """A span between entry and exit (the ``with`` object).

    One short-lived object per enabled span; the finished record is the
    immutable :class:`Span` appended to the tracer's ring buffer.
    """

    __slots__ = ("_tracer", "name", "key", "span_id", "parent_id", "depth",
                 "t_start")

    def __init__(self, tracer: "Tracer", name: str, key: Any):
        self._tracer = tracer
        self.name = name
        self.key = key

    def __enter__(self) -> "_ActiveSpan":
        tr = self._tracer
        self.span_id = tr._next_id
        tr._next_id += 1
        stack = tr._stack
        if stack:
            top = stack[-1]
            self.parent_id = top.span_id
            self.depth = top.depth + 1
        else:
            self.parent_id = -1
            self.depth = 0
        stack.append(self)
        # Read the clock last so child t_start >= parent t_start even on
        # coarse clocks, keeping the nesting invariants exact.
        self.t_start = tr.clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tr = self._tracer
        t_end = tr.clock()
        popped = tr._stack.pop()
        if popped is not self:
            tr._stack.append(popped)
            raise RuntimeError(
                f"span {self.name!r} exited while {popped.name!r} is "
                "innermost; spans must strictly nest (always use `with`)")
        buf = tr._spans
        if len(buf) == tr.capacity:
            tr.dropped += 1
        buf.append(Span(self.name, self.key, tr.rank, self.span_id,
                        self.parent_id, self.depth, self.t_start, t_end))
        return False


class Tracer:
    """Per-rank span recorder with a bounded ring buffer.

    Parameters
    ----------
    clock:
        Zero-argument callable returning monotonic seconds.  Defaults to
        :func:`time.perf_counter`; pass a
        :class:`~repro.resilience.retry.VirtualClock` (callable, with a
        per-read ``tick``) for deterministic traces.
    rank:
        The SPMD rank the spans belong to (exporters map it to the trace
        ``tid``).
    capacity:
        Ring-buffer bound.  When full, the **oldest** finished span is
        dropped and :attr:`dropped` incremented — tracing long runs is
        safe by construction, it just forgets the distant past.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] | None = None,
                 rank: int = 0, capacity: int = 1 << 16):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.clock = clock if clock is not None else time.perf_counter
        self.rank = rank
        self.capacity = capacity
        self._spans: deque[Span] = deque(maxlen=capacity)
        self._stack: list[_ActiveSpan] = []
        self._next_id = 0
        #: finished spans evicted by the ring bound
        self.dropped = 0

    def span(self, name: str, key: Any = None) -> _ActiveSpan:
        """Open a span; use as ``with tracer.span("iteration"):``."""
        return _ActiveSpan(self, name, key)

    # -- introspection ---------------------------------------------------------

    @property
    def active_depth(self) -> int:
        """Number of currently-open spans."""
        return len(self._stack)

    def finished(self) -> list[Span]:
        """Finished spans in completion order (children before parents)."""
        return list(self._spans)

    def counts(self) -> dict[str, int]:
        """Finished-span count per name."""
        out: dict[str, int] = {}
        for s in self._spans:
            out[s.name] = out.get(s.name, 0) + 1
        return out

    def count(self, name: str, key: Any = ...) -> int:
        """Finished spans named ``name`` (optionally matching ``key``)."""
        return sum(1 for s in self._spans
                   if s.name == name and (key is ... or s.key == key))

    def clear(self) -> None:
        """Drop finished spans (open spans are unaffected)."""
        self._spans.clear()
        self.dropped = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Tracer(rank={self.rank}, finished={len(self._spans)}, "
                f"open={len(self._stack)}, dropped={self.dropped})")


def sort_spans(spans: Iterable[Span]) -> list[Span]:
    """Canonical export order: by rank, then start time, then creation id.

    Creation id breaks ties exactly (virtual clocks with ``tick = 0``
    produce equal timestamps), so the order — and therefore every
    exporter's output — is deterministic.
    """
    return sorted(spans, key=lambda s: (s.rank, s.t_start, s.span_id))
