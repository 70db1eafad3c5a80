"""Cancellation semantics: deadlines, cooperative aborts, quiescence.

The service's core safety claim: a deadline or client cancel aborts a
solve at an *iteration boundary*, rank-coherently — every rank raises at
the same iteration, no p2p message is left pending (the SPMD sanitizer's
quiescence check passes inside the rank), guard checkpoints taken before
the abort remain restorable, and an **inert** token is bit-transparent
(identical iterates, identical comm contract).
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.comm import SanitizerComm, SanitizerState, launch_spmd
from repro.mesh import Field, decompose
from repro.service import CancelToken, Cancelled, DeadlineExceeded, \
    ScheduledCancel
from repro.multigrid import mgcg_solve
from repro.solvers import Defences, StencilOperator2D, cg_fused_solve, \
    cg_solve, chebyshev_solve, deflated_cg_solve, jacobi_solve, ppcg_solve
from repro.testing import crooked_pipe_system, serial_operator


def _serial_system(n=16):
    grid, kxg, kyg, bg = crooked_pipe_system(n)
    op = serial_operator(grid, kxg, kyg)
    b = Field.from_global(op.tile, 1, bg)
    return op, b


# -- token unit semantics ------------------------------------------------------


class TestCancelToken:
    def test_inert_token_never_fires(self):
        token = CancelToken()
        for it in range(1000):
            token.check(it)
        token.poll()

    def test_deadline_budget_fires_at_exact_iteration(self):
        token = CancelToken(iteration_budget=5)
        for it in range(5):
            token.check(it)
        with pytest.raises(DeadlineExceeded) as exc:
            token.check(5)
        assert exc.value.iteration == 5

    def test_client_cancel_latches_one_boundary(self):
        """All observers of a cancel raise at the same iteration: the
        first check() after the request latches the boundary, and any
        check at an earlier iteration stays silent (a lagging rank
        reaches the boundary before raising)."""
        token = CancelToken()
        token.check(3)
        token.cancel("user abort")
        with pytest.raises(Cancelled):
            token.check(7)
        # Latched at 7: a rank still at iteration 6 passes...
        token.check(6)
        # ...and raises once it reaches the latched boundary.
        with pytest.raises(Cancelled) as exc:
            token.check(7)
        assert "user abort" in str(exc.value)

    def test_poll_fires_only_on_request_not_budget(self):
        token = CancelToken(iteration_budget=1)
        token.poll()  # budgets are iteration-coherent; poll ignores them
        token.cancel()
        with pytest.raises(Cancelled):
            token.poll()

    def test_cancel_is_idempotent_first_reason_wins(self):
        token = CancelToken()
        token.cancel("first")
        token.cancel("second")
        assert token.reason == "first"

    def test_scheduled_cancel_fires_at_iteration(self):
        token = CancelToken()
        sched = ScheduledCancel(token, cancel_at_iteration=4)
        for it in range(4):
            sched.check(it)
        with pytest.raises(Cancelled):
            sched.check(4)
        assert token.cancel_requested


# -- solver integration --------------------------------------------------------

    def test_deadline_cancel_fires_from_the_solving_thread(self):
        """A wall-clock deadline is read at the iteration boundary itself:
        no second thread has to win the interpreter lock for it to fire,
        so even a solve shorter than a lock hand-over cannot outrun it."""
        import time
        from repro.service.cancel import DeadlineCancel
        token = CancelToken()
        far = DeadlineCancel(token, time.monotonic() + 3600.0, "deadline")
        far.check(0)
        far.poll()
        assert not token.cancel_requested
        due = DeadlineCancel(token, time.monotonic(), "deadline")
        with pytest.raises(Cancelled) as exc:
            due.check(7)
        assert exc.value.iteration == 7 and token.reason == "deadline"
        op, b = _serial_system()
        with pytest.raises(Cancelled) as exc:
            cg_solve(op, b, eps=1e-30, max_iters=50,
                     defences=Defences(cancel=DeadlineCancel(
                         CancelToken(), time.monotonic(), "deadline")))
        assert exc.value.iteration == 0


class TestSolverCancellation:
    def test_cg_deadline_carries_iteration(self):
        op, b = _serial_system()
        with pytest.raises(DeadlineExceeded) as exc:
            cg_solve(op, b, eps=1e-12, max_iters=200,
                     defences=Defences(cancel=CancelToken(iteration_budget=4)))
        assert exc.value.iteration == 4

    @pytest.mark.parametrize("solve", [cg_solve, jacobi_solve])
    def test_scheduled_client_cancel_mid_solve(self, solve):
        """One spelling for every recurrence: the token rides in
        ``defences=`` and fires at the scheduled boundary."""
        op, b = _serial_system()
        for solve in (solve, cg_fused_solve, deflated_cg_solve, mgcg_solve):
            cancel = ScheduledCancel(CancelToken(), cancel_at_iteration=3)
            with pytest.raises(Cancelled) as exc:
                solve(op, b, eps=1e-12, max_iters=500,
                      defences=Defences(cancel=cancel))
            assert exc.value.iteration == 3, solve.__name__

    def test_chebyshev_and_ppcg_respect_budgets(self):
        op, b = _serial_system()
        with pytest.raises(DeadlineExceeded):
            chebyshev_solve(op, b, eps=1e-14, max_iters=400, warmup_iters=8,
                            defences=Defences(
                                cancel=CancelToken(iteration_budget=12)))
        # 5 outer iterations converge: the budget fires before that.
        with pytest.raises(DeadlineExceeded):
            ppcg_solve(op, b, eps=1e-14, max_iters=400, warmup_iters=4,
                       defences=Defences(
                           cancel=CancelToken(iteration_budget=4)))

    def test_refined_solve_is_cancellable(self):
        """The token reaches the inner solves of mixed-precision
        refinement: the budget counts boundaries of the inner solve in
        flight."""
        from repro.solvers import SolverOptions, solve_linear
        op, b = _serial_system()
        options = SolverOptions(solver="cg", dtype="float32", refine=True)
        assert solve_linear(op, b, options=options).refinement_steps > 1
        with pytest.raises(DeadlineExceeded) as exc:
            solve_linear(op, b, options=options,
                         cancel=CancelToken(iteration_budget=3))
        assert exc.value.iteration == 3

    def test_inert_token_is_bit_transparent(self):
        """The no-token and inert-token solves take identical paths."""
        op, b = _serial_system()
        plain = cg_solve(op, b, eps=1e-10, max_iters=200)
        tokened = cg_solve(op, b, eps=1e-10, max_iters=200,
                           defences=Defences(cancel=CancelToken()))
        assert tokened.iterations == plain.iterations
        assert np.array_equal(tokened.x.interior, plain.x.interior)

    def test_guard_checkpoint_rollback_intact_after_cancel(self):
        """A cancelled solve leaves the guard's last checkpoint intact
        and rollback-able (no half-saved state)."""
        from repro.resilience.guard import SolverGuard

        op, b = _serial_system()
        guard = SolverGuard(checkpoint_interval=2)
        with pytest.raises(DeadlineExceeded):
            cg_solve(op, b, eps=1e-12, max_iters=200, defences=Defences(
                guard=guard, cancel=CancelToken(iteration_budget=7)))
        assert guard.checkpoints >= 3
        snap = guard.rollback("resume after cancel")
        assert 0 <= snap.iteration <= 6
        assert snap.scalars   # recurrence state rode along

    def test_cancelled_solve_resumable_from_durable_checkpoints(self, tmp_path):
        """End to end: cancel a checkpointing solve mid-flight, then
        resume from its durable shards and run to convergence."""
        from repro.resilience.faults import FaultPlan
        from repro.resilience.runner import run_resilient
        from repro.solvers import SolverOptions

        opts = SolverOptions(solver="cg", eps=1e-10, max_iters=200,
                             guard_interval=2)
        with pytest.raises(DeadlineExceeded):
            run_resilient(opts, FaultPlan.disabled(), n=16,
                          checkpoint_dir=tmp_path,
                          cancel=CancelToken(iteration_budget=7))
        report = run_resilient(opts, FaultPlan.disabled(), n=16,
                               checkpoint_dir=tmp_path, resume=True)
        assert report.converged


# -- rank coherence + quiescence (the no-wedged-barrier claim) -----------------


@pytest.mark.distributed
class TestRankCoherentCancellation:
    def test_deadline_aborts_all_ranks_same_iteration_quiescent(self):
        """Every rank raises at the same iteration boundary and the
        sanitizer's quiescence check passes inside each rank: no pending
        p2p, no half-exchanged halo, no rank still waiting in a
        collective — also behind a projected ``apply_dot`` (dcg) and a
        distributed V-cycle (mgcg)."""
        size = 2
        n = 16
        grid, kxg, kyg, bg = crooked_pipe_system(n)

        def rank_main(comm, solve, state):
            c = SanitizerComm(comm, state=state)
            tile = decompose(grid, c.size)[c.rank]
            op = StencilOperator2D.from_global_faces(tile, 1, kxg, kyg, c)
            b = Field.from_global(tile, 1, bg)
            try:
                solve(op, b, eps=1e-14, max_iters=200,
                      defences=Defences(
                          cancel=CancelToken(iteration_budget=5)))
            except DeadlineExceeded as exc:
                c.check_quiescent()   # raises SanitizerError if p2p pending
                return ("deadline", exc.iteration)
            return ("converged", -1)

        for solve in (cg_solve, deflated_cg_solve, mgcg_solve):
            out = launch_spmd(functools.partial(
                rank_main, solve=solve, state=SanitizerState(size)), size)
            assert out == [("deadline", 5)] * size, solve.__name__

    def test_client_cancel_via_spmd_runner_surfaces_cancelled(self):
        """Through the full resilient runner, a scheduled client cancel
        surfaces as Cancelled (not as CommunicationError abort fallout)."""
        from repro.resilience.faults import FaultPlan
        from repro.resilience.runner import run_resilient
        from repro.solvers import SolverOptions

        token = CancelToken()
        with pytest.raises(Cancelled):
            run_resilient(SolverOptions(solver="cg", eps=1e-14,
                                        max_iters=200),
                          FaultPlan.disabled(), n=16, size=2,
                          cancel=ScheduledCancel(token, cancel_at_iteration=4))


# -- contract transparency -----------------------------------------------------


@pytest.mark.slow
def test_all_contracts_verify_with_inert_token(monkeypatch):
    """Every shipped COMM_CONTRACT still verifies when an inert
    CancelToken rides along: the cancellation hook adds zero
    communication and never perturbs the iteration path."""
    from repro.analysis.verify import default_specs, verify_contracts

    specs = default_specs()
    assert len(specs) == 10
    # Hand every spec's solve an inert token.
    from repro.solvers import ranks

    class CountingToken(CancelToken):
        checks = 0

        def check(self, iteration):
            CountingToken.checks += 1
            super().check(iteration)

    monkeypatch.setattr(ranks, "rank_program", functools.partial(
        ranks.rank_program, cancel=CountingToken()))

    reports = verify_contracts(n=32, specs=specs)
    assert len(reports) == 10
    bad = [(r.name, r.measured_allreduces, r.measured_halos)
           for r in reports if not r.ok]
    assert not bad, bad
    assert CountingToken.checks > 100    # the token really rode along
