"""Trace-invariant test suite for repro.observe.

Four families of guarantees:

- **invariants** — spans strictly nest (parent interval contains every
  child, sibling intervals do not overlap, child durations sum to at
  most the parent's), timestamps are monotonic per rank;
- **differential** — installing a tracer changes no solver result
  bit-for-bit;
- **determinism** — two identical virtual-clock runs serialize to
  byte-identical JSONL;
- **cross-checks** — per-iteration span counts reproduce the
  COMM_CONTRACT numbers for every shipped solver configuration, and
  retry re-issues stay out of first-attempt counts whichever side of
  the retry layer the tracing wrapper sits on.
"""

import gc
import itertools
import json
import tracemalloc

import numpy as np
import pytest

from repro.comm import EventWindow, InstrumentedComm, SerialComm
from repro.mesh import Field, decompose
from repro.observe import (
    NULL_TRACER,
    MetricsRegistry,
    NullTracer,
    Tracer,
    attach_tracer,
    chrome_trace,
    jsonl_lines,
    metrics_table,
    self_times,
    sort_spans,
    summary_table,
    traced_crooked_pipe,
    traced_solve,
    write_chrome_trace,
    write_jsonl,
)
from repro.observe.trace import tracer_of
from repro.resilience import (
    FaultPlan,
    FaultRule,
    FaultyComm,
    RetryingComm,
    VirtualClock,
)
from repro.solvers import SolverOptions, StencilOperator2D, cg_solve
from repro.testing import crooked_pipe_system
from repro.utils import EventLog


def _clock_factory(rank):
    return VirtualClock(tick=1e-6)


def make_op(n=16, halo=1, tracer=None, log=None):
    """Serial instrumented crooked-pipe operator + rhs, tracer attached."""
    grid, kxg, kyg, bg = crooked_pipe_system(n)
    log = log if log is not None else EventLog()
    comm = InstrumentedComm(SerialComm(), log, tracer=tracer)
    tile = decompose(grid, 1)[0]
    op = StencilOperator2D.from_global_faces(tile, halo, kxg, kyg, comm,
                                             events=log, tracer=tracer)
    b = Field.from_global(tile, halo, bg)
    return op, b, log


# -- invariant checker ---------------------------------------------------------


def check_invariants(spans):
    """Assert the structural trace invariants over finished spans."""
    assert spans, "no spans to check"
    by_rank = {}
    for s in spans:
        by_rank.setdefault(s.rank, []).append(s)
    for ss in by_rank.values():
        by_id = {s.span_id: s for s in ss}
        assert len(by_id) == len(ss), "duplicate span ids within a rank"
        children = {}
        for s in ss:
            assert s.t_end >= s.t_start
            if s.parent_id == -1:
                assert s.depth == 0
            else:
                parent = by_id[s.parent_id]
                assert s.depth == parent.depth + 1
                # parent interval contains the child's
                assert parent.t_start <= s.t_start
                assert s.t_end <= parent.t_end
                children.setdefault(s.parent_id, []).append(s)
        # creation order == clock order (monotonic timestamps per rank)
        ordered = sorted(ss, key=lambda s: s.span_id)
        for a, b in zip(ordered, ordered[1:]):
            assert a.t_start <= b.t_start
        for pid, kids in children.items():
            parent = by_id[pid]
            kids.sort(key=lambda s: s.span_id)
            # sibling intervals are disjoint and ordered
            for a, b in zip(kids, kids[1:]):
                assert a.t_end <= b.t_start
            assert sum(k.duration for k in kids) <= parent.duration + 1e-12


# -- tracer core ---------------------------------------------------------------


class TestTracer:
    def test_nesting_ids_depth(self):
        t = Tracer(clock=VirtualClock(tick=1.0))
        with t.span("a"):
            with t.span("b", "k"):
                pass
            with t.span("c"):
                pass
        spans = {s.name: s for s in t.finished()}
        a, b, c = spans["a"], spans["b"], spans["c"]
        assert (a.span_id, b.span_id, c.span_id) == (0, 1, 2)
        assert a.parent_id == -1 and a.depth == 0
        assert b.parent_id == a.span_id and b.depth == 1
        assert c.parent_id == a.span_id and c.depth == 1
        assert b.key == "k" and a.key is None
        check_invariants(t.finished())

    def test_finished_completion_order(self):
        t = Tracer(clock=VirtualClock(tick=1.0))
        with t.span("outer"):
            with t.span("inner"):
                pass
        names = [s.name for s in t.finished()]
        assert names == ["inner", "outer"]  # children complete first

    def test_ring_buffer_bound_and_dropped(self):
        t = Tracer(clock=VirtualClock(tick=1.0), capacity=4)
        for i in range(10):
            with t.span("s", i):
                pass
        assert len(t.finished()) == 4
        assert t.dropped == 6
        assert [s.key for s in t.finished()] == [6, 7, 8, 9]  # oldest gone

    def test_mismatched_exit_raises(self):
        t = Tracer(clock=VirtualClock(tick=1.0))
        outer = t.span("outer").__enter__()
        t.span("inner").__enter__()
        with pytest.raises(RuntimeError, match="strictly nest"):
            outer.__exit__(None, None, None)

    def test_exception_closes_span(self):
        t = Tracer(clock=VirtualClock(tick=1.0))
        with pytest.raises(ValueError):
            with t.span("body"):
                raise ValueError("boom")
        assert t.count("body") == 1
        assert t.active_depth == 0

    def test_clock_read_exactly_twice_per_span(self):
        reads = []

        def clock():
            reads.append(1)
            return float(len(reads))

        t = Tracer(clock=clock)
        with t.span("a"):
            with t.span("b"):
                pass
        assert len(reads) == 4  # 2 spans x (enter + exit)

    def test_counts_and_clear(self):
        t = Tracer(clock=VirtualClock(tick=1.0))
        for key in ("x", "x", "y"):
            with t.span("s", key):
                pass
        assert t.counts() == {"s": 3}
        assert t.count("s", key="x") == 2
        t.clear()
        assert t.finished() == [] and t.dropped == 0

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_tracer_of_fallback(self):
        class Bare:
            pass

        assert tracer_of(Bare()) is NULL_TRACER
        t = Tracer()
        op = Bare()
        op.tracer = t
        assert tracer_of(op) is t


class TestNullTracer:
    def test_shared_singleton_span(self):
        a = NULL_TRACER.span("iteration", "cg")
        b = NULL_TRACER.span("other")
        assert a is b
        assert not NULL_TRACER.enabled
        assert NULL_TRACER.finished() == ()
        assert isinstance(NULL_TRACER, NullTracer)

    def test_disabled_hot_path_zero_allocation(self):
        """The acceptance criterion: the disabled tracer adds no
        *per-iteration* allocations to a hot loop.  Measured as the
        tracemalloc growth difference between a 1k and an 11k iteration
        loop, so one-off interpreter bookkeeping cancels while any
        per-span allocation would show up 10000-fold."""
        tracer = NULL_TRACER

        def grown_over(iterations):
            loop = itertools.repeat(None, iterations)
            gc.collect()
            tracemalloc.start()
            base = tracemalloc.get_traced_memory()[0]
            for _ in loop:
                with tracer.span("iteration", "cg"):
                    pass
            grown = tracemalloc.get_traced_memory()[0] - base
            tracemalloc.stop()
            return grown

        # Warm every code path once so lazy setup is outside the windows.
        with tracer.span("iteration", "cg"):
            pass
        per_iteration = grown_over(11_000) - grown_over(1_000)
        assert per_iteration <= 0, \
            f"disabled span path allocated {per_iteration} bytes / 10k spans"


# -- metrics -------------------------------------------------------------------


class TestMetrics:
    def test_counter_gauge(self):
        reg = MetricsRegistry()
        c = reg.counter("ops")
        c.inc()
        c.inc(4)
        assert reg.counter("ops") is c and c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)
        reg.gauge("res").set(0.25)
        assert reg.gauge("res").value == 0.25

    def test_histogram_buckets_inclusive_upper_edges(self):
        reg = MetricsRegistry()
        h = reg.histogram("iters", bounds=(1, 10, 100))
        for v in (0, 1, 2, 10, 11, 1000):
            h.observe(v)
        assert h.bucket_counts == [2, 2, 1, 1]  # <=1, <=10, <=100, overflow
        assert h.count == 6 and h.total == 1024.0
        assert h.mean == pytest.approx(1024 / 6)

    def test_histogram_rebounds_rejected(self):
        reg = MetricsRegistry()
        reg.histogram("h", bounds=(1, 2))
        reg.histogram("h")  # no bounds: reuse is fine
        with pytest.raises(ValueError, match="already registered"):
            reg.histogram("h", bounds=(1, 3))
        with pytest.raises(ValueError, match="strictly increasing"):
            reg.histogram("bad", bounds=(2, 1))

    def test_snapshot_detached_and_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b").inc(2)
        reg.counter("a").inc(1)
        reg.histogram("h", bounds=(1,)).observe(5)
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["a", "b"]
        assert snap["histograms"]["h"] == {
            "bounds": [1], "counts": [0, 1], "sum": 5.0, "count": 1}
        snap["counters"]["a"] = 99  # mutating the snapshot is inert
        assert reg.counter("a").value == 1
        assert len(reg) == 3
        json.dumps(snap)  # JSON-ready
        assert "histogram" in metrics_table(snap)


# -- traced solves: invariants, differential, determinism ----------------------


OPTIONS = {
    "cg": SolverOptions(solver="cg", eps=1e-8),
    "jacobi": SolverOptions(solver="jacobi", eps=1e-5, max_iters=2000),
    # warm-up CG must see enough of the crooked pipe's spectrum for the
    # Chebyshev bounds to hold at this contrast
    "chebyshev": SolverOptions(solver="chebyshev", eps=1e-8,
                               eigen_warmup_iters=20),
    "ppcg": SolverOptions(solver="ppcg", eps=1e-8, ppcg_inner_steps=4,
                          eigen_warmup_iters=8),
    "ppcg[depth=4]": SolverOptions(solver="ppcg", eps=1e-8,
                                   ppcg_inner_steps=8, halo_depth=4,
                                   eigen_warmup_iters=8),
}


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(OPTIONS))
def test_traced_solve_invariants(name):
    run = traced_crooked_pipe(16, OPTIONS[name],
                              clock_factory=_clock_factory)
    assert run.result.converged
    spans = run.spans
    check_invariants(spans)
    tracer = run.tracers[0]
    assert tracer.dropped == 0
    assert tracer.count("solve") == 1
    # every comm span nests under the solve span (depth > 0)
    for s in spans:
        if s.name in ("allreduce", "halo_exchange", "stencil"):
            assert s.depth > 0
    # span counts match the event log exactly
    assert tracer.count("allreduce") == run.events.count_kind("allreduce")
    assert tracer.count("halo_exchange") == \
        run.events.count_kind("halo_exchange")


@pytest.mark.slow
@pytest.mark.parametrize("size", [1, 4])
def test_traced_solve_multirank_per_rank_ids(size):
    run = traced_crooked_pipe(
        16, OPTIONS["cg"], size=size, clock_factory=_clock_factory)
    assert run.result.converged
    assert len(run.tracers) == size
    assert sorted(t.rank for t in run.tracers) == list(range(size))
    check_invariants(run.spans)
    for t in run.tracers:
        assert t.count("solve") == 1
        for s in t.finished():
            assert s.rank == t.rank


@pytest.mark.parametrize("name", ["cg", "ppcg"])
def test_tracing_changes_no_result_bits(name):
    """Differential: tracer on vs off -> bit-identical solver output."""
    opts = OPTIONS[name]

    def solve(tracer):
        from repro.solvers import solve_linear
        op, b, _ = make_op(n=16, halo=opts.required_field_halo,
                           tracer=tracer)
        return solve_linear(op, b, options=opts)

    plain = solve(None)
    traced = solve(Tracer(clock=VirtualClock(tick=1e-6)))
    assert traced.converged == plain.converged
    assert traced.iterations == plain.iterations
    assert traced.inner_iterations == plain.inner_iterations
    assert traced.residual_norm == plain.residual_norm  # bit-equal
    assert traced.history == plain.history
    np.testing.assert_array_equal(traced.x.data, plain.x.data)


def test_two_identical_runs_identical_jsonl():
    a = traced_crooked_pipe(12, OPTIONS["cg"], clock_factory=_clock_factory)
    b = traced_crooked_pipe(12, OPTIONS["cg"], clock_factory=_clock_factory)
    lines_a, lines_b = jsonl_lines(a.spans), jsonl_lines(b.spans)
    assert lines_a == lines_b
    assert len(lines_a) > 10


def test_simulation_step_spans(tmp_path):
    from repro.mesh import Grid2D
    from repro.physics import crooked_pipe
    from repro.physics.simulation import run_simulation

    from repro.solvers.ranks import Stack

    tracers = {}

    def factory(comm, _timeout):
        tracers[comm.rank] = Tracer(clock=VirtualClock(tick=1e-6),
                                    rank=comm.rank)
        return Stack(comm, tracer=tracers[comm.rank])

    report = run_simulation(Grid2D(12, 12), crooked_pipe(),
                            SolverOptions(solver="cg", eps=1e-8),
                            n_steps=2, stack=factory)
    assert report.n_steps == 2
    assert [s.tracer for s in report.stacks] == [tracers[0]]
    t = tracers[0]
    assert t.count("step") == 2
    assert t.count("solve") == 2
    check_invariants(t.finished())
    # step spans are the roots and solves nest under them
    spans = {s.span_id: s for s in t.finished()}
    for s in spans.values():
        if s.name == "solve":
            assert spans[s.parent_id].name == "step"


# -- COMM_CONTRACT cross-check -------------------------------------------------


def _span_measure(spec, n=32):
    """Replicate verify._measure, counting *spans* instead of events."""
    from repro.analysis.verify import _gershgorin_lam_max, build_system
    from repro.solvers.driver import SolveSetup
    from repro.solvers.eigen import EigenBounds
    from repro.solvers.ranks import instrumented_stack, solve_on_ranks

    grid, faces, bg = build_system(spec.system, n)
    setup = SolveSetup(bounds=EigenBounds(1.0, _gershgorin_lam_max(*faces)))

    def one_run(max_iters):
        tracer = Tracer(clock=VirtualClock(tick=1e-6))
        run = solve_on_ranks(
            grid, faces, bg, spec.options(max_iters), setup=setup,
            stack=lambda comm, _: instrumented_stack(comm, tracer=tracer))
        return (tracer.count("allreduce"), tracer.count("halo_exchange"),
                run.result.iterations, tracer)

    ar1, halo1, it1, _ = one_run(spec.iters[0])
    ar2, halo2, it2, tracer = one_run(spec.iters[1])
    check_invariants(tracer.finished())
    d_iter = it2 - it1
    assert d_iter > 0
    return (ar2 - ar1) / d_iter, (halo2 - halo1) / d_iter


@pytest.mark.slow
def test_span_counts_match_comm_contracts():
    """Per-iteration span counts == COMM_CONTRACT for all 10 shipped
    solver configurations, the two 3-D ones included — whose exchange
    gained its tracer span with the merge (same differencing as
    repro.analysis.verify)."""
    import importlib

    from repro.analysis.verify import default_specs

    specs = default_specs()
    assert len(specs) == 10
    for spec in specs:
        contract = importlib.import_module(spec.module).COMM_CONTRACT
        expected_ar, expected_halo = spec.expected(contract)
        measured_ar, measured_halo = _span_measure(spec)
        assert measured_ar == pytest.approx(expected_ar, abs=1e-9), spec.name
        assert measured_halo == pytest.approx(expected_halo, abs=1e-9), \
            spec.name


# -- retry exclusion (satellite) -----------------------------------------------


def _faulty_cg(seed=11, rate=0.05):
    """cg on a fault-injecting stack traced at the instrument layer."""
    grid, kxg, kyg, bg = crooked_pipe_system(16)
    log = EventLog()
    tracer = Tracer(clock=VirtualClock(tick=1e-6))
    clock = VirtualClock()
    plan = FaultPlan(seed=seed, rules=(
        FaultRule(mode="error", probability=rate, ops=("allreduce",)),)) \
        if rate > 0 else FaultPlan.disabled()
    faulty = FaultyComm(SerialComm(), plan, events=log, clock=clock)
    retrying = RetryingComm(faulty, max_attempts=5, clock=clock, events=log)
    comm = InstrumentedComm(retrying, log, tracer=tracer)
    tile = decompose(grid, 1)[0]
    op = StencilOperator2D.from_global_faces(tile, 1, kxg, kyg, comm,
                                             events=log)
    b = Field.from_global(tile, 1, bg)
    with EventWindow(log) as w:
        result = cg_solve(op, b, eps=1e-300, max_iters=10)
    return w, result, tracer, retrying


def test_retries_excluded_from_first_attempt_counts():
    """RETRY_KIND re-issues never inflate contract counts, and the
    instrument layer's spans match its first-attempt event counts."""
    clean_w, clean_result, _, _ = _faulty_cg(rate=0.0)
    w, result, tracer, retrying = _faulty_cg()
    assert result.iterations == clean_result.iterations == 10
    assert retrying.retries > 0, "fault plan injected nothing"
    assert w.retry_count("allreduce") == retrying.retries
    assert clean_w.retry_count() == 0
    # first-attempt counts under faults == the fault-free control's
    assert w.count_kind("allreduce") == clean_w.count_kind("allreduce")
    assert w.count_kind("halo_exchange") == \
        clean_w.count_kind("halo_exchange")
    # the tracer sees the same logical operations as the event log
    assert tracer.count("allreduce") == w.count_kind("allreduce")


def test_attach_tracer_installs_everywhere():
    op, b, _ = make_op(n=12)
    t = Tracer(clock=VirtualClock(tick=1e-6))
    assert attach_tracer(op, t) is t
    assert op.tracer is t and op.exchanger.tracer is t
    assert op.comm.tracer is t
    result = cg_solve(op, b, eps=1e-8)
    assert result.converged
    assert t.count("iteration") == result.iterations
    check_invariants(t.finished())


# -- exporters -----------------------------------------------------------------


def _sample_run():
    return traced_crooked_pipe(12, OPTIONS["cg"],
                               clock_factory=_clock_factory)


class TestExporters:
    def test_jsonl_valid_and_canonical(self, tmp_path):
        run = _sample_run()
        path = write_jsonl(run.spans, tmp_path / "t.jsonl")
        lines = path.read_text().splitlines()
        assert lines == jsonl_lines(run.spans)
        records = [json.loads(line) for line in lines]
        assert all(rec["t_end"] >= rec["t_start"] for rec in records)
        keys = [(r["rank"], r["t_start"], r["span_id"]) for r in records]
        assert keys == sorted(keys)

    def test_chrome_trace_structure(self, tmp_path):
        run = _sample_run()
        path = write_chrome_trace(run.spans, tmp_path / "t.chrome.json")
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert len(events) == len(run.spans)
        for ev in events:
            assert ev["ph"] == "X" and ev["cat"] == "repro"
            assert ev["dur"] >= 0 and ev["tid"] == 0
        names = {ev["name"] for ev in events}
        assert {"solve", "iteration", "allreduce"} <= names

    def test_self_times_bounded_by_duration(self):
        run = _sample_run()
        spans = run.spans
        exclusive = self_times(spans)
        for s in spans:
            assert 0.0 <= exclusive[s.span_id] <= s.duration + 1e-12

    def test_summary_table(self):
        run = _sample_run()
        text = summary_table(run.spans)
        assert "solve" in text and "iteration" in text
        assert summary_table([]) == "(no spans recorded)"

    def test_nonscalar_keys_serialized(self):
        t = Tracer(clock=VirtualClock(tick=1.0))
        with t.span("s", (1, 2)):
            pass
        (line,) = jsonl_lines(t.finished())
        assert json.loads(line)["key"] == "(1, 2)"


# -- metrics as resilience-sweep oracle (satellite) ----------------------------


@pytest.mark.slow
def test_resilience_sweep_schema_with_metrics_oracle():
    from repro.harness.resilience_sweep import SOLVERS, run_resilience_sweep
    from repro.observe import record_resilience_metrics

    solvers = SOLVERS[:1]  # cg only: keep the sweep short
    sweep = run_resilience_sweep(n=16, rates=(0.0, 0.01), solvers=solvers)
    doc = sweep.as_dict()
    assert doc["schema"] == "repro.resilience_sweep/v2"
    assert doc["solvers"] == ["cg"] and doc["rates"] == [0.0, 0.01]
    assert len(doc["cells"]) == 2
    json.dumps(doc)  # JSON-ready
    for cell in doc["cells"]:
        report = sweep.report(cell["solver"], cell["rate"])
        reg = MetricsRegistry()
        record_resilience_metrics(reg, report)
        snap = reg.snapshot()
        # the sweep's cell values and the metrics snapshot must agree
        assert cell["iterations"] == snap["counters"]["resilience.iterations"]
        assert cell["faults"] == snap["counters"]["resilience.faults"]
        assert cell["retries"] == snap["counters"]["resilience.retries"]
        assert cell["rollbacks"] == snap["counters"]["resilience.rollbacks"]
        assert cell["checkpoints"] == \
            snap["counters"]["resilience.checkpoints"]
        assert cell["recoveries"] == \
            snap["counters"]["resilience.recoveries"]
        assert cell["integrity_detections"] == \
            snap["counters"]["resilience.integrity_detections"]
        assert cell["integrity_repairs"] == \
            snap["counters"]["resilience.integrity_repairs"]
        assert cell["converged"] == \
            bool(snap["gauges"]["resilience.converged"])
        assert cell["degraded"] == bool(snap["gauges"]["resilience.degraded"])
        assert cell["virtual_time_s"] == \
            snap["gauges"]["resilience.virtual_time_s"]
        assert cell["relative_residual"] == \
            snap["gauges"]["resilience.relative_residual"]
    faulted = sweep.report("cg", 0.01)
    assert faulted.retries > 0  # the non-zero rate actually injected


def test_record_solve_metrics_schema():
    run = _sample_run()
    snap = run.metrics.snapshot()
    assert snap["counters"]["solve.iterations"] == run.result.iterations
    assert snap["counters"]["solve.allreduces"] == \
        run.events.count_kind("allreduce")
    assert snap["counters"]["solve.halo_exchanges"] == \
        run.events.count_kind("halo_exchange")
    assert snap["counters"]["solve.retries"] == 0
    assert snap["gauges"]["solve.converged"] == 1.0
    hist = snap["histograms"]["solve.iterations_hist"]
    assert hist["count"] == 1 and hist["sum"] == run.result.iterations


# -- Timer pluggable clock (satellite; see also tests/test_utils.py) -----------


def test_timer_shares_virtual_clock_with_tracer():
    from repro.utils.timing import Timer

    clock = VirtualClock(tick=0.5)
    tracer = Tracer(clock=clock)
    timer = Timer(clock=clock)
    with timer:
        with tracer.span("work"):
            pass
    (span,) = tracer.finished()
    assert span.duration == 0.5
    assert timer.elapsed == 1.5  # timer read + 2 span reads + timer read


# -- CLI -----------------------------------------------------------------------


@pytest.mark.slow
def test_cli_trace_cppcg_emits_valid_traces(tmp_path, capsys):
    from repro.cli.main import main
    from repro.physics.deck import CROOKED_PIPE_DECK

    deck = tmp_path / "tea.in"
    deck.write_text(CROOKED_PIPE_DECK.format(n=24))
    out = tmp_path / "trace"
    rc = main(["trace", "--deck", str(deck), "--solver", "cppcg",
               "--out", str(out), "--virtual-clock"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "converged" in text and "span" in text
    jsonl = (out / "trace.jsonl").read_text().splitlines()
    assert jsonl
    records = [json.loads(line) for line in jsonl]
    assert {"iteration", "cheby_step", "allreduce"} <= \
        {r["name"] for r in records}
    doc = json.loads((out / "trace.chrome.json").read_text())
    assert doc["traceEvents"]


# -- hygiene: the observe package passes the repo's own linter ----------------


def test_observe_package_is_lint_clean():
    from pathlib import Path

    from repro.analysis import analyze_paths

    pkg = Path(__file__).resolve().parents[1] / "src" / "repro" / "observe"
    result = analyze_paths([pkg])
    assert [f.code for f in result.findings] == []
