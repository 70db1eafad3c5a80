"""Unit tests: deterministic fault injection, retry, guard, degradation."""

import numpy as np
import pytest

from repro.comm import (
    RETRY_KIND,
    InstrumentedComm,
    SerialComm,
    launch_spmd,
)
from repro.mesh import Field, Grid2D
from repro.resilience import (
    CrashWindow,
    FaultPlan,
    FaultRule,
    FaultyComm,
    SolverGuard,
    build_resilient_comm,
    run_resilient,
)
from repro.solvers import (
    Defences,
    EigenBounds,
    SolverOptions,
    cg_fused_solve,
    cg_solve,
    chebyshev_solve,
    deflated_cg_solve,
    jacobi_solve,
    make_local_preconditioner,
    ppcg_solve,
)
from repro.utils import EventLog
from repro.utils.errors import (
    CommunicationError,
    ConfigurationError,
    ConvergenceError,
    TransientCommError,
)

from tests.helpers import (
    crooked_pipe_system,
    history_sha,
    scripted_system,
    serial_operator,
)

#: The acceptance-criteria fault mix: 2% transient wire errors on every op
#: class plus 1% NaN-corrupted allreduce results.
MIX_PLAN = FaultPlan(seed=7, rules=(
    FaultRule(mode="error", probability=0.02,
              ops=("send", "recv", "allreduce")),
    FaultRule(mode="corrupt_nan", probability=0.02, ops=("allreduce",)),
))

CG_OPTS = SolverOptions(solver="cg", eps=1e-10, max_iters=600,
                        guard_interval=5)


def serial_system(n=24, halo=1):
    g, kx, ky, bg = crooked_pipe_system(n)
    op = serial_operator(g, kx, ky, halo=halo)
    b = Field.from_global(op.tile, halo, bg)
    return op, b


class TestFaultPlan:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultRule(mode="explode")

    def test_invalid_probability_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultRule(mode="error", probability=1.5)

    def test_unknown_op_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultRule(mode="error", ops=("sendrecv",))

    def test_disabled_plan_is_inert(self):
        comm = FaultyComm(SerialComm(), FaultPlan.disabled())
        assert comm.allreduce(3.0) == 3.0
        assert comm.log == []

    def test_transient_shorthand(self):
        plan = FaultPlan.transient(0.25, seed=3)
        assert plan.active()
        assert plan.rules[0].mode == "error"
        assert plan.rules[0].probability == 0.25

    def test_certain_error_raises_and_logs(self):
        plan = FaultPlan(seed=0, rules=(
            FaultRule(mode="error", probability=1.0, ops=("allreduce",)),))
        comm = FaultyComm(SerialComm(), plan)
        with pytest.raises(TransientCommError):
            comm.allreduce(1.0)
        assert len(comm.log) == 1 and comm.log[0].op == "allreduce"

    def test_max_faults_caps_firing(self):
        plan = FaultPlan(seed=0, rules=(
            FaultRule(mode="corrupt_sign", probability=1.0,
                      ops=("allreduce",), max_faults=2),))
        comm = FaultyComm(SerialComm(), plan)
        values = [comm.allreduce(1.0) for _ in range(5)]
        assert values == [-1.0, -1.0, 1.0, 1.0, 1.0]
        assert len(comm.log) == 2


class TestDeterminism:
    def test_same_seed_identical_runs(self):
        a = run_resilient(CG_OPTS, MIX_PLAN, n=24)
        b = run_resilient(CG_OPTS, MIX_PLAN, n=24)
        assert a.fault_events == b.fault_events
        assert a.iterations == b.iterations
        assert a.residual_norm == b.residual_norm

    def test_different_seed_different_faults(self):
        other = FaultPlan(seed=8, rules=MIX_PLAN.rules)
        a = run_resilient(CG_OPTS, MIX_PLAN, n=24)
        b = run_resilient(CG_OPTS, other, n=24)
        assert a.fault_events != b.fault_events

    def test_events_carry_iteration_stamp(self):
        report = run_resilient(CG_OPTS, MIX_PLAN, n=24)
        assert report.fault_events
        assert all(ev.iteration >= 0 for ev in report.fault_events)


class TestAcceptance:
    """ISSUE acceptance: >=1% faults + corrupted allreduce, same answer."""

    @pytest.mark.parametrize("options", [
        CG_OPTS,
        SolverOptions(solver="ppcg", eps=1e-10, max_iters=200,
                      ppcg_inner_steps=4, eigen_warmup_iters=10,
                      guard_interval=5, degrade=True),
        SolverOptions(solver="ppcg", eps=1e-10, max_iters=200,
                      ppcg_inner_steps=8, halo_depth=4,
                      eigen_warmup_iters=10, guard_interval=5, degrade=True),
    ], ids=["cg", "ppcg", "cppcg4"])
    def test_converges_like_fault_free(self, options):
        clean = run_resilient(options, FaultPlan.disabled(), n=24)
        faulty = run_resilient(options, MIX_PLAN, n=24)
        assert clean.converged and faulty.converged
        assert faulty.relative_residual <= 1e-10
        assert faulty.iterations == clean.iterations
        np.testing.assert_allclose(faulty.x, clean.x, atol=1e-9)

    def test_faults_actually_fired(self):
        report = run_resilient(CG_OPTS, MIX_PLAN, n=24)
        assert len(report.fault_events) >= 1
        assert any(ev.mode.startswith("corrupt") and ev.op == "allreduce"
                   for ev in report.fault_events)


class TestRetryNotCounted:
    """Satellite: retries must never inflate COMM_CONTRACT counts."""

    def test_contract_counts_unchanged_under_faults(self):
        # Error-only plan: retried ops succeed, nothing is corrupted, so
        # the logical operation stream is identical to fault-free.
        plan = FaultPlan(seed=7, rules=(
            FaultRule(mode="error", probability=0.05, ops=("allreduce",)),))
        options = SolverOptions(solver="cg", eps=1e-10, max_iters=600)
        clean = run_resilient(options, FaultPlan.disabled(), n=24)
        faulty = run_resilient(options, plan, n=24)
        assert clean.retries == 0
        assert faulty.retries == faulty.events.count_kind(RETRY_KIND) > 0
        assert clean.iterations == faulty.iterations
        assert (faulty.events.count_kind("allreduce")
                == clean.events.count_kind("allreduce"))

    def test_verify_contracts_through_resilient_stack(self):
        from repro.analysis.verify import verify_contracts
        reports = verify_contracts(n=16, names=["cg"], resilience=True)
        assert reports and all(r.ok for r in reports)


class TestGuard:
    class FakeField:
        def __init__(self, data):
            self.data = np.asarray(data, dtype=float)

    def test_rollback_restores_data(self):
        f = self.FakeField([1.0, 2.0])
        guard = SolverGuard(checkpoint_interval=5)
        guard.save(0, fields={"f": f}, scalars={"k": 42})
        f.data[...] = [9.0, 9.0]
        snap = guard.rollback("test")
        assert snap.iteration == 0 and snap.scalars == {"k": 42}
        np.testing.assert_array_equal(f.data, [1.0, 2.0])

    def test_healthy_screens_nan_and_divergence(self):
        guard = SolverGuard(divergence_ratio=10.0)
        assert guard.healthy(1.0)
        assert not guard.healthy(float("nan"))
        assert not guard.healthy(float("inf"))
        assert not guard.healthy(100.0)   # > 10 x best (1.0)
        assert guard.healthy(5.0)

    def test_rollback_without_checkpoint_raises(self):
        guard = SolverGuard()
        with pytest.raises(ConvergenceError):
            guard.rollback()

    def test_consecutive_budget_exhausts(self):
        f = self.FakeField([0.0])
        guard = SolverGuard(max_rollbacks=2)
        guard.save(0, fields={"f": f}, scalars={})
        guard.rollback()
        guard.rollback()
        with pytest.raises(ConvergenceError, match="budget exhausted"):
            guard.rollback()

    def test_healthy_iteration_resets_budget(self):
        f = self.FakeField([0.0])
        guard = SolverGuard(max_rollbacks=1)
        guard.save(0, fields={"f": f}, scalars={})
        guard.rollback()
        assert guard.healthy(1.0)
        guard.rollback()  # budget was reset; must not raise
        assert guard.rollbacks == 2

    def test_guard_recovers_corrupted_cg(self):
        """A NaN'd allreduce rolls back instead of poisoning the solve."""
        plan = FaultPlan(seed=7, rules=(
            FaultRule(mode="corrupt_nan", probability=0.02,
                      ops=("allreduce",)),))
        report = run_resilient(CG_OPTS, plan, n=24)
        assert report.converged and report.rollbacks >= 1
        assert any(ev.action == "rollback" for ev in report.guard_events)


class TestDefencePaths:
    """Every way a CG iteration can be rewound or refused, pinned at the
    commit before the defences moved behind one object (PR 13): iteration
    and rollback/checkpoint counts, the guard-log text, and the exact
    residual history.  A CG allreduce sequence is 1 = initial dots, then
    per iteration k: 2k+2 = ``<p, Ap>``, 2k+3 = ``(<r, z>, <r, r>)``."""

    CLEAN = "5ab6329831f90439"   # history of the fault-free 28-iteration run

    system = staticmethod(scripted_system)

    @staticmethod
    def first_inf(out):
        out = out.copy()
        out[0] = np.inf
        return out

    @pytest.mark.parametrize("script,precond,log,sha", [
        ({16: lambda out: float("nan")}, "none",
         "<p, Ap> = nan", CLEAN),
        ({17: lambda out: out * np.nan}, "none",
         "residual norm nan", CLEAN),
        ({17: first_inf.__func__}, "diagonal",
         "beta = inf", "a1992c9ef76a2094"),
    ], ids=["curvature", "residual", "beta"])
    def test_bad_scalar_rolls_back(self, script, precond, log, sha):
        op, b = self.system(script)
        guard = SolverGuard(checkpoint_interval=5)
        result = cg_solve(
            op, b, eps=1e-10, max_iters=200,
            preconditioner=make_local_preconditioner(op, precond),
            defences=Defences(guard=guard))
        assert result.converged and result.iterations == 28
        assert (guard.rollbacks, guard.checkpoints) == (1, 7)
        assert [str(ev) for ev in guard.log if ev.action == "rollback"] == [
            f"[guard rollback] iter 7: restored iteration 5 — {log}"]
        assert len(result.history) == 29
        assert history_sha(result.history) == sha

    ABFT_REASON = ("ABFT replay: true residual 5.495385e-04 vs recurrence "
                   "5.245525e-04 at iteration 10")

    def drifting_system(self):
        """``A p`` perturbed once (iteration 7): the recurrence residual
        silently drifts away from ``b - A x``."""
        op, b = self.system({})
        real, calls = op.apply_dot, [0]

        def bad(p, out):
            pw = real(p, out)
            calls[0] += 1
            if calls[0] == 8:
                out.interior[3, 3] += 1e-3
            return pw
        op.apply_dot = bad
        return op, b

    def test_abft_drift_rolls_back(self):
        op, b = self.drifting_system()
        guard = SolverGuard(checkpoint_interval=5)
        result = cg_solve(op, b, eps=1e-10, max_iters=200,
                          defences=Defences(guard=guard, abft_interval=10))
        assert result.converged and result.iterations == 28
        assert (guard.rollbacks, guard.checkpoints) == (1, 7)
        assert [str(ev) for ev in guard.log if ev.action == "rollback"] == [
            "[guard rollback] iter 9: restored iteration 5 — "
            + self.ABFT_REASON]
        assert history_sha(result.history) == self.CLEAN

    def test_abft_drift_without_guard_raises(self):
        op, b = self.drifting_system()
        with pytest.raises(ConvergenceError) as exc:
            cg_solve(op, b, eps=1e-10, max_iters=200,
                     defences=Defences(abft_interval=10))
        assert str(exc.value) == \
            "silent corruption detected — " + self.ABFT_REASON

    def test_abft_and_replacement_share_one_recompute(self):
        """Both due at iteration 20: one ``b - A x``, under the recovery
        scope; every other check is accounted where it always was."""
        g, kx, ky, bg = crooked_pipe_system(16)
        op = serial_operator(g, kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        result = cg_solve(op, b, eps=1e-10, max_iters=300, defences=Defences(
            abft_interval=4, replace_interval=10, replace_tolerance=1.0))
        assert result.converged and result.iterations == 28
        assert result.replacement.checks == 3       # 10, 20, 28 (claimed)
        assert op.events.recovery_count("matvec") == 7      # 4, 8, ... 28
        assert op.events.replacement_count("matvec") == 1   # 10 only


class TestDegradation:
    def _deep_exchange_poisoned(self, halo):
        op, b = serial_system(32, halo=halo)
        real = op.exchanger.exchange

        def failing(fields, depth=1, **kw):
            if depth > 1:
                raise CommunicationError("injected deep-halo failure")
            return real(fields, depth=depth, **kw)

        op.exchanger.exchange = failing
        return op, b

    def test_chebyshev_falls_back_to_depth_1(self):
        op, b = self._deep_exchange_poisoned(4)
        guard = SolverGuard(checkpoint_interval=5)
        result = chebyshev_solve(op, b, eps=1e-10, warmup_iters=10,
                                 halo_depth=4, degrade=True,
                                 defences=Defences(guard=guard))
        assert result.converged and result.degraded
        assert "4 -> 1" in result.degraded_reason
        # pinned before PR 13: the re-anchored checkpoint rides along
        assert (result.iterations, result.warmup_iterations) == (100, 10)
        assert (guard.rollbacks, guard.checkpoints) == (0, 14)
        assert history_sha(result.history) == "3482c6cda10cae0f"

    def test_chebyshev_without_degrade_raises(self):
        op, b = self._deep_exchange_poisoned(4)
        with pytest.raises(CommunicationError):
            chebyshev_solve(op, b, eps=1e-10, warmup_iters=10, halo_depth=4)

    def test_ppcg_falls_back_to_depth_1(self):
        op, b = self._deep_exchange_poisoned(4)
        result = ppcg_solve(op, b, eps=1e-10, inner_steps=8, halo_depth=4,
                            warmup_iters=10, degrade=True)
        assert result.converged and result.degraded
        assert (result.iterations, result.warmup_iterations) == (9, 10)
        assert history_sha(result.history) == "e05e77d4073054d7"

    def test_ppcg_degenerate_bounds_fall_back_to_cg(self):
        op, b = serial_system(32)
        result = ppcg_solve(op, b, eps=1e-10, warmup_iters=10,
                            bounds=EigenBounds(1.0, 1.0), degrade=True)
        assert result.converged and result.degraded
        assert "plain CG" in result.degraded_reason

    def test_ppcg_degenerate_bounds_without_degrade_raises(self):
        op, b = serial_system(32)
        with pytest.raises(ConfigurationError):
            ppcg_solve(op, b, eps=1e-10, warmup_iters=10,
                       bounds=EigenBounds(1.0, 1.0))


class TestCrashWindows:
    def test_survivable_crash(self):
        plan = FaultPlan(seed=3,
                         crashes=(CrashWindow(rank=1, start=40, length=3),))
        report = run_resilient(CG_OPTS, plan, n=24, size=4)
        assert report.converged
        crash = [ev for ev in report.fault_events if ev.rule == -1]
        assert crash and all(ev.rank == 1 for ev in crash)

    def test_fatal_crash_raises(self):
        plan = FaultPlan(seed=3,
                         crashes=(CrashWindow(rank=1, start=40, length=10),))
        with pytest.raises(CommunicationError):
            run_resilient(CG_OPTS, plan, n=24, size=4, max_attempts=5)

    def test_determinism_across_ranks(self):
        plan = FaultPlan(seed=11, rules=(
            FaultRule(mode="error", probability=0.01,
                      ops=("send", "recv", "allreduce")),))
        a = run_resilient(CG_OPTS, plan, n=24, size=4)
        b = run_resilient(CG_OPTS, plan, n=24, size=4)
        assert a.converged and a.fault_events == b.fault_events
        assert a.iterations == b.iterations


class TestDropAndTimeout:
    def test_dropped_send_times_out_receiver(self):
        plan = FaultPlan(seed=0, rules=(
            FaultRule(mode="drop", probability=1.0, ops=("send",)),))

        def rank_main(comm):
            stack = build_resilient_comm(comm, plan, recv_timeout=0.2)
            peer = 1 - comm.rank
            stack.comm.send(comm.rank, dest=peer, tag=0)
            return stack.comm.recv(source=peer, tag=0)

        with pytest.raises(CommunicationError):
            launch_spmd(rank_main, 2)

    def test_timeout_error_is_not_retried(self):
        """Timeouts are plain CommunicationError: retrying cannot help."""
        plan = FaultPlan(seed=0, rules=(
            FaultRule(mode="drop", probability=1.0, ops=("send",)),))
        retried = []

        def rank_main(comm):
            stack = build_resilient_comm(comm, plan, recv_timeout=0.2)
            peer = 1 - comm.rank
            stack.comm.send(comm.rank, dest=peer, tag=0)
            try:
                stack.comm.recv(source=peer, tag=0)
            finally:
                retried.append(stack.retrying.retries)
            return None

        with pytest.raises(CommunicationError):
            launch_spmd(rank_main, 2)
        assert retried and all(r == 0 for r in retried)


class TestFaultPlanRoundTrip:
    """Satellite: FaultPlan ⇄ dict ⇄ JSON round-trips exactly."""

    FULL_PLAN = FaultPlan(seed=42, rules=(
        # every field non-default at least once, every corruption mode
        FaultRule(mode="error", probability=0.015,
                  ops=("send", "recv", "allreduce"), ranks=(0, 2),
                  tags=(101, 102), min_bytes=64, window=(10, 20),
                  max_faults=3, delay_s=0.5, scale=7.0),
        FaultRule(mode="drop", probability=1.0, ops=("send",),
                  max_faults=1),
        FaultRule(mode="delay", probability=0.25, ops=("recv",),
                  delay_s=2e-3),
        FaultRule(mode="corrupt_nan", probability=0.1, ops=("allreduce",)),
        FaultRule(mode="corrupt_inf", probability=0.1, ops=("bcast",)),
        FaultRule(mode="corrupt_sign", probability=0.1, ops=("gather",),
                  window=(0, 1)),
        FaultRule(mode="corrupt_scale", probability=0.1,
                  ops=("allreduce", "allgather"), scale=1e-12,
                  window=(5, 1 << 40)),
    ), crashes=(
        CrashWindow(rank=0, start=0, length=1),
        CrashWindow(rank=3, start=100, length=17),
    ))

    def test_round_trip_identity(self):
        plan = self.FULL_PLAN
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_round_trip_through_json_bytes(self):
        import json
        plan = self.FULL_PLAN
        rebuilt = FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert rebuilt == plan
        # and serializing the rebuilt plan is byte-identical
        assert json.dumps(rebuilt.to_dict(), sort_keys=True) \
            == json.dumps(plan.to_dict(), sort_keys=True)

    def test_disabled_plan_round_trips(self):
        plan = FaultPlan.disabled()
        rebuilt = FaultPlan.from_dict(plan.to_dict())
        assert rebuilt == plan and not rebuilt.active()

    def test_none_filters_survive(self):
        rule = FaultRule(mode="error", probability=0.5)
        back = FaultRule.from_dict(rule.to_dict())
        assert back.ranks is None and back.tags is None \
            and back.window is None and back.max_faults is None
        assert back == rule

    def test_window_edges_preserved_as_tuples(self):
        # tuples come back as tuples (JSON lists must not leak through,
        # or frozen-dataclass equality and rule matching both break)
        rule = FaultRule.from_dict(FaultRule(
            mode="error", window=(0, 1), ops=("send",)).to_dict())
        assert rule.window == (0, 1) and isinstance(rule.window, tuple)
        assert rule.matches("send", 0, None, 8, 0)
        assert not rule.matches("send", 0, None, 8, 1)

    def test_unknown_schema_rejected(self):
        data = self.FULL_PLAN.to_dict()
        data["schema"] = "repro.fault_plan/v99"
        with pytest.raises(ConfigurationError):
            FaultPlan.from_dict(data)

    def test_invalid_mode_rejected_on_load(self):
        data = self.FULL_PLAN.to_dict()
        data["rules"][0]["mode"] = "explode"
        with pytest.raises(ConfigurationError):
            FaultPlan.from_dict(data)


class TestRetryBackoffCap:
    """Satellite: the backoff cap and final-attempt error semantics."""

    class _AlwaysFailing(SerialComm):
        def __init__(self, exc_class=TransientCommError):
            super().__init__()
            self.exc_class = exc_class
            self.attempts = 0

        def allreduce(self, value, op="sum"):
            self.attempts += 1
            raise self.exc_class("injected")

    def test_backoff_cap_honored(self):
        from repro.resilience import RetryingComm, VirtualClock

        inner = self._AlwaysFailing()
        clock = VirtualClock()
        comm = RetryingComm(inner, max_attempts=20, base_delay=1e-3,
                            backoff=2.0, max_delay=0.01, clock=clock)
        with pytest.raises(TransientCommError):
            comm.allreduce(1.0)
        assert inner.attempts == 20
        # 19 sleeps of min(1e-3 * 2**k, 0.01): uncapped this would charge
        # ~262 s; the cap keeps the whole chain under 19 * max_delay.
        expected = sum(min(1e-3 * 2.0 ** k, 0.01) for k in range(19))
        assert clock.now == pytest.approx(expected)
        assert clock.now <= 19 * 0.01

    def test_cap_below_base_delay_rejected(self):
        from repro.resilience import RetryingComm

        with pytest.raises(ConfigurationError):
            RetryingComm(SerialComm(), base_delay=1e-2, max_delay=1e-3)

    def test_final_attempt_reraises_retryable_class(self):
        """Exhausting the budget re-raises the *retryable* error class.

        Solver-level recovery distinguishes a transient-fault death
        (worth a rank-recovery attempt) from a fail-fast plain
        CommunicationError; collapsing the class on the last attempt
        would erase that signal.
        """
        from repro.resilience import RetryingComm
        from repro.utils.errors import ChecksumError

        for exc_class in (TransientCommError, ChecksumError):
            inner = self._AlwaysFailing(exc_class)
            comm = RetryingComm(inner, max_attempts=3)
            with pytest.raises(exc_class):
                comm.allreduce(1.0)
            assert inner.attempts == 3

    def test_recv_timeout_forwarded_on_every_attempt(self):
        """Each attempt gets the per-attempt timeout — the final one too.

        A recv whose early attempts die of transient faults must still
        pass ``recv_timeout`` to the last attempt, so a dropped message
        surfaces as a bounded timeout instead of the thread world's
        120 s deadlock guard.
        """
        from repro.resilience import RetryingComm

        seen: list = []

        class _Inner(SerialComm):
            def recv(self, source, tag=0, timeout=None):
                seen.append(timeout)
                if len(seen) < 3:
                    raise TransientCommError("flaky")
                raise CommunicationError("receive timeout (simulated)")

        comm = RetryingComm(_Inner(), max_attempts=3, recv_timeout=0.25)
        with pytest.raises(CommunicationError):
            comm.recv(source=0)
        assert seen == [0.25, 0.25, 0.25]
        assert comm.retries == 2


class TestInputValidation:
    """Satellite: NaN/Inf in b or x0 fails upfront for every solver."""

    SOLVERS = {
        "jacobi": jacobi_solve,
        "cg": cg_solve,
        "cg_fused": cg_fused_solve,
        "dcg": deflated_cg_solve,
        "chebyshev": chebyshev_solve,
        "ppcg": ppcg_solve,
    }

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_nan_rhs_rejected(self, name):
        op, b = serial_system(8)
        b.interior[2, 3] = float("nan")
        with pytest.raises(ValueError, match="non-finite"):
            self.SOLVERS[name](op, b)

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_inf_x0_rejected(self, name):
        op, b = serial_system(8)
        x0 = op.new_field()
        x0.interior[0, 0] = float("inf")
        with pytest.raises(ValueError, match="x0"):
            self.SOLVERS[name](op, b, x0)


class TestStallConsistency:
    """Satellite: cg/ppcg/chebyshev raise the same stall error shape."""

    CASES = {
        "cg": lambda op, b: cg_solve(op, b, eps=1e-300, max_iters=5,
                                     raise_on_stall=True),
        "chebyshev": lambda op, b: chebyshev_solve(
            op, b, eps=1e-300, max_iters=20, warmup_iters=8,
            raise_on_stall=True),
        "ppcg": lambda op, b: ppcg_solve(
            op, b, eps=1e-300, max_iters=5, inner_steps=4, warmup_iters=8,
            raise_on_stall=True),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_stall_message_format(self, name):
        op, b = serial_system(16)
        with pytest.raises(ConvergenceError) as exc_info:
            self.CASES[name](op, b)
        message = str(exc_info.value)
        assert message.startswith(f"{name} did not converge in ")
        assert "relative residual" in message and "eps" in message


class TestSimulationCheckpoint:
    def _sim(self):
        from repro.physics import crooked_pipe
        from repro.physics.simulation import Simulation
        options = SolverOptions(solver="cg", eps=1e-10, max_iters=400)
        return Simulation(SerialComm(), Grid2D(16, 16), crooked_pipe(),
                          options)

    def test_step_retry_reproduces_fault_free_run(self):
        baseline = self._sim().run(3)
        sim = self._sim()
        step, armed = sim.step, [True]

        def flaky():
            if sim.step_index == 1 and armed[0]:
                armed[0] = False
                raise ConvergenceError("injected")
            return step()

        sim.step = flaky
        stats = sim.run(3, checkpoint_interval=1, max_step_retries=2)
        assert [s.step for s in stats] == [s.step for s in baseline]
        assert stats[-1].mean_temperature == baseline[-1].mean_temperature

    def test_retry_budget_exhaustion_reraises(self):
        sim = self._sim()

        def always_fail():
            raise ConvergenceError("persistent")

        sim.step = always_fail
        with pytest.raises(ConvergenceError):
            sim.run(2, checkpoint_interval=1, max_step_retries=2)

    def test_no_checkpoint_means_no_retry(self):
        sim = self._sim()

        def always_fail():
            raise ConvergenceError("persistent")

        sim.step = always_fail
        with pytest.raises(ConvergenceError):
            sim.run(1, max_step_retries=5)


class TestSweepHarness:
    def test_small_sweep_converges_everywhere(self):
        from repro.harness.resilience_sweep import run_resilience_sweep
        sweep = run_resilience_sweep(n=16, rates=(0.0, 0.02))
        for key, report in sweep.reports.items():
            assert report.converged, key
        clean = sweep.report("cg", 0.0)
        faulty = sweep.report("cg", 0.02)
        assert clean.iterations == faulty.iterations
