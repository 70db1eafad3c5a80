"""Unit tests: the (preconditioned) CG solver."""

import numpy as np
import pytest

from repro.mesh import Field, Grid2D
from repro.solvers import cg_solve
from repro.utils import ConvergenceError

from tests.helpers import (
    counted_solve,
    crooked_pipe_system,
    random_spd_faces,
    reference_solution,
    serial_operator,
)


class TestConvergence:
    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_matches_direct_solve(self, n):
        g, kx, ky, bg = crooked_pipe_system(n)
        x_ref = reference_solution(kx, ky, bg)
        op = serial_operator(g, kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        result = cg_solve(op, b, eps=1e-12)
        assert result.converged
        assert np.allclose(result.x.interior, x_ref,
                           atol=1e-9 * np.abs(x_ref).max())

    def test_random_spd_system(self, rng):
        n = 20
        kx, ky = random_spd_faces(rng, n, n, scale=5.0)
        bg = rng.standard_normal((n, n))
        x_ref = reference_solution(kx, ky, bg)
        op = serial_operator(Grid2D(n, n), kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        result = cg_solve(op, b, eps=1e-12)
        assert np.allclose(result.x.interior, x_ref, atol=1e-8)

    def test_exact_after_n_iterations(self, rng):
        """Finite termination: CG is exact in <= n_cells iterations."""
        kx, ky = random_spd_faces(rng, 4, 4)
        bg = rng.standard_normal((4, 4))
        op = serial_operator(Grid2D(4, 4), kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        result = cg_solve(op, b, eps=1e-13, max_iters=16)
        assert result.converged

    def test_zero_rhs_converges_immediately(self, rng):
        kx, ky = random_spd_faces(rng, 6, 6)
        op = serial_operator(Grid2D(6, 6), kx, ky)
        b = op.new_field()
        result = cg_solve(op, b)
        assert result.converged and result.iterations == 0

    def test_initial_guess_exact(self):
        g, kx, ky, bg = crooked_pipe_system(12)
        x_ref = reference_solution(kx, ky, bg)
        op = serial_operator(g, kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        x0 = Field.from_global(op.tile, 1, x_ref)
        # The tolerance is relative to the initial residual of *this call*;
        # anchor it to ||b|| so an exact guess terminates immediately.
        bnorm = float(np.linalg.norm(bg))
        result = cg_solve(op, b, x0, eps=1e-8, reference_norm=bnorm)
        assert result.iterations == 0
        assert result.converged

    def test_warm_start_does_not_mutate_x0(self):
        g, kx, ky, bg = crooked_pipe_system(12)
        op = serial_operator(g, kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        x0 = op.new_field()
        x0.interior[...] = 3.0
        cg_solve(op, b, x0, eps=1e-8)
        assert np.all(x0.interior == 3.0)


class TestDiagnostics:
    def test_history_monotone_overall(self):
        g, kx, ky, bg = crooked_pipe_system(24)
        op = serial_operator(g, kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        result = cg_solve(op, b, eps=1e-10)
        assert len(result.history) == result.iterations + 1
        assert result.history[-1] < result.history[0] * 1e-9

    def test_coefficients_recorded(self):
        g, kx, ky, bg = crooked_pipe_system(16)
        op = serial_operator(g, kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        result = cg_solve(op, b, eps=1e-10)
        assert len(result.alphas) == result.iterations
        assert len(result.betas) == result.iterations
        assert all(a > 0 for a in result.alphas)
        assert all(bb >= 0 for bb in result.betas)

    def test_relative_residual_and_summary(self):
        g, kx, ky, bg = crooked_pipe_system(12)
        op = serial_operator(g, kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        result = cg_solve(op, b, eps=1e-10)
        assert result.relative_residual <= 1e-10
        assert "cg" in result.summary()
        assert "converged" in result.summary()

    def test_unconverged_result(self):
        g, kx, ky, bg = crooked_pipe_system(32)
        op = serial_operator(g, kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        result = cg_solve(op, b, eps=1e-12, max_iters=3)
        assert not result.converged
        assert result.iterations == 3

    def test_raise_on_stall(self):
        g, kx, ky, bg = crooked_pipe_system(32)
        op = serial_operator(g, kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        with pytest.raises(ConvergenceError, match="did not converge"):
            cg_solve(op, b, eps=1e-12, max_iters=3, raise_on_stall=True)

    def test_reference_norm_override(self):
        g, kx, ky, bg = crooked_pipe_system(16)
        op = serial_operator(g, kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        loose = cg_solve(op, b, eps=1e-4)
        # Same eps but a 1e6x larger reference makes it trivially converged.
        op2 = serial_operator(g, kx, ky)
        b2 = Field.from_global(op2.tile, 1, bg)
        easy = cg_solve(op2, b2, eps=1e-4,
                        reference_norm=loose.initial_residual_norm * 1e6)
        assert easy.iterations < loose.iterations


class TestCommunicationPattern:
    def test_allreduce_count_two_per_iteration(self):
        """CG must fuse its dots: 2 allreduces per iteration (+1 setup)."""
        run = counted_solve(16, solver="cg", eps=1e-10)
        assert run.events.count_kind("allreduce") \
            == 2 * run.result.iterations + 1

    def test_preconditioned_same_allreduce_count(self):
        run = counted_solve(16, solver="cg", eps=1e-10,
                            preconditioner="diagonal")
        assert run.events.count_kind("allreduce") \
            == 2 * run.result.iterations + 1

    def test_halo_exchanges_one_per_iteration(self):
        g, kx, ky, bg = crooked_pipe_system(16)
        op = serial_operator(g, kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        result = cg_solve(op, b, eps=1e-10)
        # serial: exchange events still recorded (no-ops on the wire)
        assert op.events.count("halo_exchange", 1) == result.iterations + 1
