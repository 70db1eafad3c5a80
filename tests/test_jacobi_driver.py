"""Unit tests: Jacobi solver, SolverOptions, and the dispatch driver."""

import numpy as np
import pytest

from repro.mesh import Field, Grid2D
from repro.solvers import SolverOptions, jacobi_solve, solve_linear
from repro.utils import ConfigurationError

from tests.helpers import (
    crooked_pipe_system,
    random_spd_faces,
    reference_solution,
    serial_operator,
)


class TestJacobi:
    def test_converges_to_reference(self):
        g, kx, ky, bg = crooked_pipe_system(16)
        x_ref = reference_solution(kx, ky, bg)
        op = serial_operator(g, kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        result = jacobi_solve(op, b, eps=1e-10, max_iters=100_000)
        assert result.converged
        assert np.allclose(result.x.interior, x_ref,
                           atol=1e-6 * np.abs(x_ref).max())

    def test_much_slower_than_cg(self):
        from repro.solvers import cg_solve
        g, kx, ky, bg = crooked_pipe_system(24)
        op1 = serial_operator(g, kx, ky)
        b1 = Field.from_global(op1.tile, 1, bg)
        jac = jacobi_solve(op1, b1, eps=1e-8, max_iters=200_000)
        op2 = serial_operator(g, kx, ky)
        b2 = Field.from_global(op2.tile, 1, bg)
        cg = cg_solve(op2, b2, eps=1e-8)
        assert jac.iterations > 3 * cg.iterations

    def test_residual_monotone_tail(self):
        g, kx, ky, bg = crooked_pipe_system(12)
        op = serial_operator(g, kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        result = jacobi_solve(op, b, eps=1e-8, max_iters=100_000)
        tail = result.history[-20:]
        assert all(a >= b_ for a, b_ in zip(tail, tail[1:]))

    def test_unconverged_reported(self):
        g, kx, ky, bg = crooked_pipe_system(16)
        op = serial_operator(g, kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        result = jacobi_solve(op, b, eps=1e-12, max_iters=5)
        assert not result.converged and result.iterations == 5


class TestSolverOptions:
    def test_defaults(self):
        opt = SolverOptions()
        assert opt.solver == "cg"
        assert opt.required_field_halo == 1

    def test_required_halo_tracks_matrix_powers(self):
        assert SolverOptions(solver="ppcg", halo_depth=8).required_field_halo == 8
        assert SolverOptions(solver="cg", halo_depth=8).required_field_halo == 1
        assert SolverOptions(solver="chebyshev",
                             halo_depth=4).required_field_halo == 4

    def test_labels(self):
        assert SolverOptions(solver="cg").label() == "CG - 1"
        assert SolverOptions(solver="ppcg", halo_depth=16).label() == "PPCG - 16"
        assert SolverOptions(solver="mgcg").label() == "MG-CG - 1"

    @pytest.mark.parametrize("bad", [
        dict(solver="sor"),
        dict(preconditioner="ilu"),
        dict(eps=0.0),
        dict(max_iters=0),
        dict(ppcg_inner_steps=-1),
        dict(halo_depth=0),
        dict(checkpoint_interval=5),       # no checkpoint_dir
        dict(solver="ppcg", preconditioner="block_jacobi", halo_depth=4),
    ])
    def test_invalid_options(self, bad):
        with pytest.raises(ConfigurationError):
            SolverOptions(**bad)

    def test_frozen(self):
        opt = SolverOptions()
        with pytest.raises(AttributeError):
            opt.solver = "ppcg"


class TestDriver:
    @pytest.mark.parametrize("solver", ["jacobi", "cg", "chebyshev", "ppcg",
                                        "mgcg"])
    def test_dispatch_converges(self, solver):
        g, kx, ky, bg = crooked_pipe_system(16)
        eps = 1e-8
        opts = SolverOptions(solver=solver, eps=eps,
                             max_iters=200_000 if solver == "jacobi" else 1000)
        op = serial_operator(g, kx, ky, halo=opts.required_field_halo)
        b = Field.from_global(op.tile, opts.required_field_halo, bg)
        result = solve_linear(op, b, options=opts)
        assert result.converged
        x_ref = reference_solution(kx, ky, bg)
        assert np.allclose(result.x.interior, x_ref,
                           atol=1e-4 * np.abs(x_ref).max())

    def test_default_options(self):
        g, kx, ky, bg = crooked_pipe_system(12)
        op = serial_operator(g, kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        assert solve_linear(op, b).converged

    def test_halo_mismatch_rejected(self):
        g, kx, ky, bg = crooked_pipe_system(12)
        op = serial_operator(g, kx, ky, halo=1)
        b = Field.from_global(op.tile, 1, bg)
        with pytest.raises(ConfigurationError, match="halo"):
            solve_linear(op, b, options=SolverOptions(solver="ppcg",
                                                      halo_depth=4))

    def test_cg_with_preconditioner_options(self, rng):
        n = 16
        kx, ky = random_spd_faces(rng, n, n)
        bg = rng.standard_normal((n, n))
        for prec in ("none", "diagonal", "block_jacobi"):
            op = serial_operator(Grid2D(n, n), kx, ky)
            b = Field.from_global(op.tile, 1, bg)
            result = solve_linear(op, b, options=SolverOptions(
                solver="cg", preconditioner=prec, eps=1e-11))
            assert result.converged
