"""Unit tests: repro.numerics — precision, breakdown, replacement, refinement."""

import math

import numpy as np
import pytest

from repro.mesh import Field, Grid2D, Grid3D
from repro.numerics import (
    BreakdownError,
    BreakdownGuard,
    ResidualReplacer,
    cast_field,
    cast_operator,
    inner_tolerance,
    resolve_dtype,
    unit_roundoff,
)
from repro.solvers import (Defences, EigenBounds, SolverOptions,
                           StencilOperator2D, cg_solve, solve_linear)
from repro.solvers.jacobi import jacobi_solve
from repro.solvers.ppcg import ppcg_solve
from repro.utils import ConvergenceError
from repro.utils.errors import ConfigurationError

from tests.helpers import (
    crooked_pipe_jump_system,
    crooked_pipe_system,
    distributed_solve,
    history_sha,
    serial_operator,
)


def pipe_problem(n=16):
    g, kx, ky, bg = crooked_pipe_system(n)
    op = serial_operator(g, kx, ky)
    b = Field.from_global(op.tile, 1, bg)
    return op, b


def indefinite_problem(n=6):
    """An operator with negative face coefficients: A is not SPD.

    The right-hand side must carry high-frequency content — a constant
    vector only sees the identity part of the stencil and ``<p, Ap>``
    stays positive.
    """
    g = Grid2D(n, n)
    kx = np.zeros((n, n + 1))
    ky = np.zeros((n + 1, n))
    kx[:, 1:n] = -5.0
    ky[1:n, :] = -5.0
    op = serial_operator(g, kx, ky)
    rng = np.random.default_rng(42)
    b = Field.from_global(op.tile, 1, rng.standard_normal((n, n)))
    return op, b


class TestPrecisionHelpers:
    def test_resolve_dtype(self):
        assert resolve_dtype("float32") == np.float32
        assert resolve_dtype("float64") == np.float64

    def test_resolve_dtype_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            resolve_dtype("int32")

    def test_unit_roundoff(self):
        assert unit_roundoff("float64") == np.finfo(np.float64).eps / 2
        assert unit_roundoff("float32") == np.finfo(np.float32).eps / 2
        assert unit_roundoff("float32") > unit_roundoff("float64")

    def test_inner_tolerance_floor(self):
        u32 = unit_roundoff("float32")
        # A target far below float32 resolution is clamped to sqrt(u).
        assert inner_tolerance("float32", 1e-12) == pytest.approx(
            math.sqrt(u32))
        # An achievable target is passed through.
        assert inner_tolerance("float32", 1e-2) == 1e-2

    def test_cast_field_dtype_and_values(self):
        op, b = pipe_problem(8)
        b32 = cast_field(b, "float32")
        assert b32.data.dtype == np.float32
        np.testing.assert_allclose(
            b32.interior, b.interior.astype(np.float32))

    def test_cast_field_noop_at_same_dtype(self):
        op, b = pipe_problem(8)
        assert cast_field(b, "float64") is b

    def test_cast_operator_casts_everything(self):
        op, b = pipe_problem(8)
        op32 = cast_operator(op, "float32")
        assert op32.dtype == np.float32
        assert op32.kx.data.dtype == np.float32
        assert op32.ky.data.dtype == np.float32
        # The cast operator shares the original's event log so
        # communication accounting stays in one place.
        assert op32.events is op.events

    def test_field_allocation_respects_dtype(self):
        op, b = pipe_problem(8)
        b32 = cast_field(b, "float32")
        assert Field.like(b32).data.dtype == np.float32


class TestBreakdownGuard:
    def test_curvature_nan_raises(self):
        # The satellite regression: NaN <= 0 is False, so an unguarded
        # ``pw <= 0`` check lets a poisoned reduction slip through.
        guard = BreakdownGuard(solver="cg")
        with pytest.raises(BreakdownError, match="non-finite") as exc:
            guard.curvature(float("nan"), iteration=7)
        assert exc.value.solver == "cg"
        assert exc.value.iteration == 7
        assert exc.value.quantity == "pAp"
        assert math.isnan(exc.value.value)

    def test_curvature_negative_raises(self):
        guard = BreakdownGuard(solver="cg")
        with pytest.raises(BreakdownError, match="not SPD") as exc:
            guard.curvature(-1.5, iteration=3)
        assert exc.value.value == -1.5

    def test_curvature_positive_passes(self):
        BreakdownGuard(solver="cg").curvature(1e-30, iteration=0)

    def test_coefficient_nonfinite_always_fatal(self):
        guard = BreakdownGuard(solver="ppcg")
        with pytest.raises(BreakdownError, match="non-finite"):
            guard.coefficient("beta", float("inf"), iteration=2)

    def test_coefficient_sign_only_strict(self):
        # Transiently negative beta is routine for Chebyshev-preconditioned
        # CG, so the sign check is opt-in.
        BreakdownGuard(solver="ppcg").coefficient("beta", -0.1, iteration=2)
        strict = BreakdownGuard(solver="cg", strict=True)
        with pytest.raises(BreakdownError, match="conjugacy"):
            strict.coefficient("beta", -0.1, iteration=2)

    def test_residual_nonfinite_raises(self):
        guard = BreakdownGuard(solver="jacobi")
        with pytest.raises(BreakdownError, match="non-finite"):
            guard.residual(float("nan"), iteration=1)

    def test_residual_stagnation_window(self):
        guard = BreakdownGuard(solver="cg", stagnation_window=3)
        for it, norm in enumerate([1.0, 0.9999, 0.9998]):
            guard.residual(norm, iteration=it)
        with pytest.raises(BreakdownError, match="stagnated") as exc:
            guard.residual(0.9997, iteration=3)
        assert exc.value.quantity == "residual_norm"

    def test_residual_progress_resets_window(self):
        guard = BreakdownGuard(solver="cg", stagnation_window=3)
        for it, norm in enumerate([1.0, 0.5, 0.25, 0.125, 0.0625]):
            guard.residual(norm, iteration=it)

    def test_reset_clears_window(self):
        guard = BreakdownGuard(solver="cg", stagnation_window=2)
        guard.residual(1.0, iteration=0)
        guard.residual(1.0, iteration=1)
        guard.reset()
        guard.residual(1.0, iteration=2)  # would raise without the reset

    def test_breakdown_is_convergence_error(self):
        assert issubclass(BreakdownError, ConvergenceError)


class TestSolverBreakdowns:
    def test_cg_indefinite_operator(self):
        op, b = indefinite_problem()
        with pytest.raises(BreakdownError) as exc:
            cg_solve(op, b, eps=1e-10, max_iters=50)
        assert exc.value.quantity == "pAp"
        assert exc.value.value <= 0.0

    def test_cg_sign_flipped_reduction_reaches_the_guard(self):
        """A corrupted ``<r, r> < 0`` used to be square-rooted first (a
        numpy ``RuntimeWarning``) and screened second; now the guard is
        what reports it."""
        import warnings
        from repro.comm import SerialComm

        class FlippingComm(SerialComm):
            calls = 0

            def allreduce(self, value, op="sum"):
                self.calls += 1
                out = super().allreduce(value, op)
                return -out if self.calls == 5 else out  # <r, r>, iteration 2

        g, kx, ky, bg = crooked_pipe_system(16)
        op = StencilOperator2D.from_global_faces(
            serial_operator(g, kx, ky).tile, 1, kx, ky, FlippingComm())
        b = Field.from_global(op.tile, 1, bg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BreakdownError) as exc:
                cg_solve(op, b, eps=1e-10, max_iters=50)
        assert exc.value.quantity == "residual_norm"
        assert np.isnan(exc.value.value)

    @pytest.mark.parametrize("name,flip_at,verdict", [
        ("jacobi", 3, "raises"), ("chebyshev", 12, "raises"),
        # (ids pinned by the test floor; both raise like the rest)
        pytest.param("cg_fused", 3, "raises", id="cg_fused-3-nan"),
        pytest.param("dcg", 8, "raises", id="dcg-8-nan"),
        ("multigrid", 2, "nan"),
    ])
    def test_sign_flipped_reduction_outside_cg(self, name, flip_at, verdict):
        """ROADMAP 4a beyond ``cg.py``: every residual norm is taken with
        ``residual_norm``, so a sign-flipped ``<r, r>`` is a NaN norm for
        the solve's watch to judge (or, in the unwatched standalone
        V-cycle loop, the history to show), never a numpy
        ``RuntimeWarning`` from an unguarded ``sqrt``."""
        import warnings
        from repro.multigrid import multigrid_solve
        from repro.solvers import (cg_fused_solve, chebyshev_solve,
                                   deflated_cg_solve)
        from tests.helpers import scripted_system

        def negate(out):   # <r, r> is the last (or only) reduced value
            if np.ndim(out) == 0:
                return -out
            out = out.copy()
            out[-1] = -out[-1]
            return out
        solve = {
            "jacobi": lambda op, b: jacobi_solve(op, b, max_iters=20),
            "chebyshev": lambda op, b: chebyshev_solve(
                op, b, max_iters=40, warmup_iters=4, check_interval=5),
            "cg_fused": lambda op, b: cg_fused_solve(op, b, max_iters=5),
            "dcg": lambda op, b: deflated_cg_solve(
                op, b, max_iters=5, blocks=(2, 2), preconditioner="diagonal"),
            "multigrid": lambda op, b: multigrid_solve(op, b, max_iters=3),
        }[name]
        op, b = scripted_system({flip_at: negate})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if verdict == "raises":
                with pytest.raises(BreakdownError) as exc:
                    solve(op, b)
                assert exc.value.quantity == "residual_norm"
                assert np.isnan(exc.value.value)
            else:
                assert any(np.isnan(h) for h in solve(op, b).history)

    def test_cg_fused_indefinite_operator(self):
        from repro.solvers.cg_fused import cg_fused_solve
        op, b = indefinite_problem()
        with pytest.raises(BreakdownError) as exc:
            cg_fused_solve(op, b, eps=1e-10, max_iters=50)
        assert exc.value.quantity == "pAp"

    def test_jacobi_raises_on_nan_instead_of_spinning(self):
        # A NaN face coefficient poisons the sweep at iteration 1; the
        # guard converts a silent 10k-iteration burn into a loud error.
        g, kx, ky, bg = crooked_pipe_system(16)
        kx = kx.copy()
        kx[8, 8] = np.nan
        op = serial_operator(g, kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        with pytest.raises(BreakdownError) as exc:
            jacobi_solve(op, b, eps=1e-10, max_iters=500)
        assert exc.value.solver == "jacobi"
        assert exc.value.iteration <= 2

    def test_chebyshev_stagnation_under_bad_bounds(self):
        g, kx, ky, bg = crooked_pipe_jump_system(16, 1e8)
        op = serial_operator(g, kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        with pytest.raises(BreakdownError, match="stagnated"):
            solve_linear(op, b, options=SolverOptions(
                solver="chebyshev", eps=1e-10, max_iters=2000,
                eigen_warmup_iters=4, eigen_safety=(1.0, 1.0),
                stagnation_window=5))

    def test_cg3d_breakdown(self):
        # The 7-point operator under the shared CG: negative faces.
        n = 4
        kx = np.zeros((n, n, n + 1))
        ky = np.zeros((n, n + 1, n))
        kz = np.zeros((n + 1, n, n))
        kx[:, :, 1:n] = -4.0
        ky[:, 1:n, :] = -4.0
        kz[1:n, :, :] = -4.0
        op = serial_operator(Grid3D(n, n, n), kx, ky, kz)
        b = Field.from_global(
            op.tile, 1, np.random.default_rng(42).standard_normal((n, n, n)))
        with pytest.raises(BreakdownError) as exc:
            cg_solve(op, b, eps=1e-10, max_iters=50)
        assert exc.value.solver == "cg"
        assert exc.value.quantity == "pAp"
        assert exc.value.value <= 0.0


class TestPpcgRestartAndFallback:
    """Breakdown-driven restart/degrade paths (verified recipes).

    With deliberately bogus eigenvalue bounds the Chebyshev inner phase
    makes no progress; the stagnation window raises a BreakdownError
    inside the outer loop, which the adaptive machinery turns into a
    restart, a fallback to plain CG, or a structured raise.
    """

    EPS = 1e-8

    @pytest.fixture(scope="class")
    def system(self):
        g, kx, ky, bg = crooked_pipe_jump_system(16, 1e8)
        op = serial_operator(g, kx, ky, halo=4)
        b = Field.from_global(op.tile, 4, bg)
        return op, b

    def run(self, system, **kw):
        op, b = system
        bad = EigenBounds(lam_min=0.5, lam_max=0.6)
        return ppcg_solve(op, b, eps=self.EPS, max_iters=400,
                          inner_steps=9, halo_depth=4, bounds=bad,
                          defences=Defences(stagnation_window=15), **kw)

    def test_fallback_to_plain_cg(self, system):
        result = self.run(system, adaptive=True, max_restarts=0,
                          degrade=True)
        assert result.converged
        assert result.degraded
        assert "fell back to plain CG" in result.degraded_reason
        assert "breakdown persists" in result.degraded_reason
        # pinned before PR 13 moved the defences behind one object: the
        # warm-up ran with the stagnation window off, every later phase
        # with a fresh one
        assert (result.iterations, result.warmup_iterations,
                result.restarts) == (37, 25, 0)
        assert len(result.history) == 63
        assert history_sha(result.history) == "f12ca2e550319502"
        assert result.degraded_reason.endswith(
            "residual stagnated across 15 iterations "
            "(1.311807e-02 -> 1.310812e-02) at iteration 89")

    def test_breakdown_raises_without_degrade(self, system):
        with pytest.raises(BreakdownError, match="stagnated"):
            self.run(system, adaptive=True, max_restarts=0, degrade=False)

    def test_restart_recovers(self, system):
        result = self.run(system, adaptive=True, max_restarts=2,
                          degrade=True)
        assert result.converged
        assert result.restarts >= 1
        assert not result.degraded

    def test_nonadaptive_degrades_immediately(self, system):
        result = self.run(system, adaptive=False, degrade=True)
        assert result.converged
        assert result.degraded
        assert "broke down" in result.degraded_reason


class TestMixedPrecision:
    def test_float32_solve_stays_float32(self):
        op, b = pipe_problem(8)
        result = cg_solve(cast_operator(op, "float32"),
                          cast_field(b, "float32"), eps=1e-4)
        assert result.converged
        assert result.x.data.dtype == np.float32

    def test_driver_promotes_back_to_b_dtype(self):
        op, b = pipe_problem(8)
        result = solve_linear(op, b, options=SolverOptions(
            solver="cg", eps=1e-4, dtype="float32"))
        assert result.converged
        assert result.x.data.dtype == np.float64

    def test_float32_halo_traffic_halves(self):
        # Satellite: mesh/operator allocations follow the working dtype,
        # so halo exchange moves exactly half the bytes in float32.
        g, kx, ky, bg = crooked_pipe_system(16)
        totals = {}
        for dtype in ("float64", "float32"):
            options = SolverOptions(solver="cg", eps=1e-30, max_iters=5,
                                    dtype=dtype)
            _, result = distributed_solve(g, kx, ky, bg, options, 2)
            totals[dtype] = result.events.total("halo_exchange", "bytes")
        assert totals["float64"] > 0
        assert totals["float32"] == totals["float64"] // 2


class TestIterativeRefinement:
    def test_float32_refinement_reaches_float64_tolerance(self):
        op, b = pipe_problem(16)
        options = SolverOptions(solver="cg", eps=1e-10, dtype="float32",
                                refine=True, max_iters=400)
        result = solve_linear(op, b, options=options)
        assert result.converged
        assert result.true_residual_norm is not None
        assert result.true_relative_residual <= 1e-10
        assert result.diagnosis.refinement_steps >= 1
        assert not result.diagnosis.escalated
        assert result.diagnosis.final_dtype == "float32"
        # And the answer matches a straight float64 solve.
        ref = solve_linear(op, b, options=SolverOptions(
            solver="cg", eps=1e-10))
        np.testing.assert_allclose(result.x.interior, ref.x.interior,
                                   rtol=1e-6, atol=1e-12)

    def test_refinement_is_deterministic(self):
        op, b = pipe_problem(16)
        options = SolverOptions(solver="cg", eps=1e-10, dtype="float32",
                                refine=True, max_iters=400)
        a = solve_linear(op, b, options=options)
        c = solve_linear(op, b, options=options)
        assert np.array_equal(a.x.data, c.x.data)
        assert a.iterations == c.iterations

    @pytest.mark.slow
    def test_hopeless_float32_escalates_with_diagnosis(self):
        # kappa ~ 8e6 puts u32 * kappa ~ 0.47 over the hopeless
        # threshold: refinement cannot contract, so the driver escalates
        # to float64 and says why.
        g, kx, ky, bg = crooked_pipe_jump_system(16, 1e10, dt=50.0)
        op = serial_operator(g, kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        options = SolverOptions(solver="cg", eps=1e-8, dtype="float32",
                                refine=True, max_iters=2000)
        result = solve_linear(op, b, options=options)
        assert result.converged
        assert result.diagnosis.escalated
        assert result.diagnosis.final_dtype == "float64"
        assert "hopeless" in result.diagnosis.reason
        assert result.diagnosis.kappa_estimate > 1e6


class TestResidualReplacement:
    def test_drift_bound_uses_sqrt_u_floor(self):
        rep = ResidualReplacer(interval=10, dtype="float64")
        u = unit_roundoff("float64")
        # kappa = 1: the derived bound 100*u is below the sqrt(u) floor.
        assert rep.drift_bound(1.0) == pytest.approx(math.sqrt(u))

    def test_drift_bound_explicit_tolerance_wins(self):
        rep = ResidualReplacer(interval=10, dtype="float64",
                               tolerance=1e-3)
        assert rep.drift_bound(2.0) == pytest.approx(2e-3)

    def test_observe_records_splice(self):
        rep = ResidualReplacer(interval=10, dtype="float32")
        bound = rep.drift_bound(1.0)
        assert not rep.observe(bound / 2, 1.0, iteration=10)
        assert rep.observe(bound * 2, 1.0, iteration=20)
        assert rep.stats.checks == 2
        assert rep.stats.splices == 1
        assert rep.stats.max_drift == pytest.approx(bound * 2)

    def test_adaptive_interval_shrinks_with_condition(self):
        rep = ResidualReplacer(interval=100, dtype="float32",
                               adaptive=True)
        # Lanczos coefficients spanning five orders of magnitude: the
        # condition estimate drives the cadence toward 1/sqrt(u * kappa).
        rep.update_condition([1.0, 1e-5, 1.0], [0.5, 0.5, 0.5])
        assert rep.kappa > 1e3
        assert rep.current < 100
        assert rep.current >= 4  # MIN_INTERVAL floor

    def test_update_condition_from_solve_coefficients(self):
        op, b = pipe_problem(16)
        probe = cg_solve(op, b, eps=1e-10)
        rep = ResidualReplacer(interval=100, dtype="float32",
                               adaptive=True)
        rep.update_condition(probe.alphas, probe.betas)
        assert rep.kappa > 1.0

    def test_float32_false_convergence_is_caught(self):
        # Unprotected float32 at eps=1e-8: the recurrence claims
        # convergence while the true residual sits ~26x over tolerance.
        op, b = pipe_problem(16)
        eps = 1e-8
        lying = solve_linear(op, b, options=SolverOptions(
            solver="cg", eps=eps, dtype="float32", max_iters=300,
            true_residual=True))
        assert lying.converged
        assert lying.true_relative_residual > 10 * eps

        # With replacement on, every convergence claim is verified
        # against a freshly recomputed true residual: no false positive.
        op2, b2 = pipe_problem(16)
        honest = solve_linear(op2, b2, options=SolverOptions(
            solver="cg", eps=eps, dtype="float32", max_iters=300,
            replace_interval=10, replace_adaptive=True,
            true_residual=True))
        assert honest.replacement.splices > 0
        if honest.converged:
            assert honest.true_relative_residual <= 10 * eps
        # pinned before PR 13: every claimed convergence was refused
        assert (honest.iterations, honest.converged) == (300, False)
        assert honest.replacement.as_dict() == {
            "checks": 109, "splices": 108,
            "max_drift": 1.4321918708997808e-06, "interval": 10}
        assert history_sha(honest.history) == "d3474ba933aaf34f"

    def test_splice_at_claimed_convergence_pinned(self):
        # A drift bound below rounding makes every check splice — the
        # scheduled ones (10, 20) and the one forced when the recurrence
        # claims convergence (29) — with guard and ABFT replay (every 3,
        # never coinciding) riding along.  Pinned before PR 13.
        op, b = pipe_problem(16)
        result = solve_linear(op, b, options=SolverOptions(
            solver="cg", eps=1e-10, max_iters=300, replace_interval=10,
            replace_tolerance=1e-15, guard_interval=5, abft_interval=3))
        assert (result.iterations, result.converged) == (29, True)
        assert result.replacement.as_dict() == {
            "checks": 3, "splices": 3,
            "max_drift": 2.3418766925686896e-16, "interval": 10}
        assert history_sha(result.history) == "9ade3deb71bdb0e4"
        assert result.events.recovery_count("matvec") == 9
        assert result.events.replacement_count("matvec") == 3

    def test_replacement_traffic_is_rerouted(self):
        # Splice-free replacement checks must not change the iteration
        # stream, and their allreduces land under the replacement event
        # kind so first-attempt COMM_CONTRACT counts stay exact.
        g, kx, ky, bg = crooked_pipe_system(16)
        options_plain = SolverOptions(solver="cg", eps=1e-10)
        # replace_tolerance=1.0 makes the splice bound the residual scale
        # itself, so the checks are splice-free by construction and the
        # iteration stream is bit-identical to the plain run.
        options_rep = SolverOptions(solver="cg", eps=1e-10,
                                    replace_interval=10,
                                    replace_tolerance=1.0)
        _, plain = distributed_solve(g, kx, ky, bg, options_plain, 2)
        _, rep = distributed_solve(g, kx, ky, bg, options_rep, 2)
        assert rep.replacement.splices == 0
        assert rep.replacement.checks > 0
        assert rep.iterations == plain.iterations
        assert rep.residual_norm == plain.residual_norm
        # First-attempt counts match the plain run exactly; the true
        # residual recomputes (matvec + halo exchange per check) are
        # all under the replacement kind.
        for kind in ("matvec", "halo_exchange"):
            assert (rep.events.count_kind(kind)
                    == plain.events.count_kind(kind))
            assert (rep.events.replacement_count(kind)
                    == rep.replacement.checks)

    def test_true_residual_in_summary(self):
        op, b = pipe_problem(8)
        result = solve_linear(op, b, options=SolverOptions(
            solver="cg", eps=1e-10, true_residual=True))
        assert result.true_residual_norm is not None
        assert "(true" in result.summary()


class TestDeckAndCli:
    def test_deck_parses_numerics_settings(self):
        from repro.physics.deck import parse_deck_text
        deck = parse_deck_text(
            "*tea\n"
            "state 1 density=1.0 energy=1.0\n"
            "tl_working_dtype=float32\n"
            "tl_replace_interval=25\n"
            "tl_enable_refinement\n"
            "tl_check_true_residual\n"
            "*endtea\n")
        assert deck.tl_working_dtype == "float32"
        assert deck.tl_replace_interval == 25
        assert deck.tl_enable_refinement
        assert deck.tl_check_true_residual

    def test_deck_rejects_unknown_dtype(self):
        from repro.physics.deck import parse_deck_text
        with pytest.raises(ConfigurationError, match="tl_working_dtype"):
            parse_deck_text("*tea\ntl_working_dtype=float16\n*endtea\n")

    def test_deck_defaults(self):
        from repro.physics.deck import parse_deck_text
        deck = parse_deck_text("*tea\nstate 1 density=1.0 energy=1.0\n*endtea\n")
        assert deck.tl_working_dtype == "float64"
        assert deck.tl_replace_interval == 0
        assert not deck.tl_enable_refinement
        assert not deck.tl_check_true_residual

    @pytest.mark.slow
    def test_cli_tealeaf_prints_true_residual(self, tmp_path, capsys):
        from repro.cli.main import main
        deck = tmp_path / "tea.in"
        deck.write_text(
            "*tea\n"
            "state 1 density=100.0 energy=0.0001\n"
            "state 2 density=0.1 energy=25.0 geometry=rectangle "
            "xmin=0.0 xmax=1.0 ymin=1.0 ymax=2.0\n"
            "x_cells=12\ny_cells=12\n"
            "initial_timestep=0.04\nend_time=0.08\n"
            "use_cg\ntl_eps=1e-8\n"
            "tl_check_true_residual\n"
            "*endtea\n", encoding="utf-8")
        rc = main(["tealeaf", "--deck", str(deck)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "true=" in out
