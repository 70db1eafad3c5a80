"""Unit tests: Chebyshev iteration — solver, preconditioner, matrix powers."""

import copy

import numpy as np
import pytest

from repro.mesh import Field, Grid2D
from repro.solvers import (
    ChebyshevPreconditioner,
    EigenBounds,
    chebyshev_epsilon,
    chebyshev_solve,
    cg_solve,
)
from repro.solvers.chebyshev import CHECK_INTERVAL, ChebyshevIteration
from repro.solvers.eigen import spectrum_bounds
from repro.solvers.preconditioners import (
    BlockJacobiPreconditioner,
    DiagonalPreconditioner,
    make_local_preconditioner,
)
from repro.utils import ConfigurationError, EventLog

from tests.helpers import (
    bits,
    counted_solve,
    crooked_pipe_system,
    random_spd_faces,
    reference_solution,
    serial_operator,
)


def true_bounds(kx, ky, widen=1.001):
    from repro.solvers import StencilOperator2D
    A = StencilOperator2D.assemble_sparse(kx, ky).toarray()
    eig = np.linalg.eigvalsh(A)
    return EigenBounds(eig[0] / widen, eig[-1] * widen)


class TestChebyshevIteration:
    def test_residual_decays_at_polynomial_rate(self, rng):
        """||r_m|| <= 2 eps_m ||r_0|| for the Chebyshev error polynomial."""
        n = 16
        kx, ky = random_spd_faces(rng, n, n)
        bounds = true_bounds(kx, ky)
        op = serial_operator(Grid2D(n, n), kx, ky)
        bg = rng.standard_normal((n, n))
        rr = Field.from_global(op.tile, 1, bg)
        x = op.new_field()
        it = ChebyshevIteration(op, rr, x, bounds)
        r0 = np.linalg.norm(bg)
        for m in (5, 10, 20):
            it.run(m - it.steps_done)
            rm = np.linalg.norm(rr.interior)
            assert rm <= 2.0 * chebyshev_epsilon(m, bounds) * r0 * 5.0

    def test_maintained_residual_is_true_residual(self, rng):
        n = 12
        kx, ky = random_spd_faces(rng, n, n)
        bounds = true_bounds(kx, ky)
        op = serial_operator(Grid2D(n, n), kx, ky)
        bg = rng.standard_normal((n, n))
        b = Field.from_global(op.tile, 1, bg)
        rr = b.copy()
        x = op.new_field()
        ChebyshevIteration(op, rr, x, bounds).run(15)
        check = op.new_field()
        op.residual(b, x, out=check)
        assert np.allclose(check.interior, rr.interior, atol=1e-10)

    def test_solves_toward_solution(self, rng):
        n = 12
        kx, ky = random_spd_faces(rng, n, n)
        bounds = true_bounds(kx, ky)
        bg = rng.standard_normal((n, n))
        x_ref = reference_solution(kx, ky, bg)
        op = serial_operator(Grid2D(n, n), kx, ky)
        rr = Field.from_global(op.tile, 1, bg)
        x = op.new_field()
        ChebyshevIteration(op, rr, x, bounds).run(120)
        assert np.allclose(x.interior, x_ref, atol=1e-6)

    def test_equal_bounds_rejected(self, rng):
        kx, ky = random_spd_faces(rng, 6, 6)
        op = serial_operator(Grid2D(6, 6), kx, ky)
        with pytest.raises(ConfigurationError):
            ChebyshevIteration(op, op.new_field(), op.new_field(),
                               EigenBounds(2.0, 2.0))

    def test_halo_depth_exceeds_field_halo(self, rng):
        kx, ky = random_spd_faces(rng, 6, 6)
        op = serial_operator(Grid2D(6, 6), kx, ky, halo=2)
        with pytest.raises(ConfigurationError):
            ChebyshevIteration(op, op.new_field(), op.new_field(),
                               EigenBounds(1.0, 4.0), halo_depth=3)

    def test_block_jacobi_with_matrix_powers_rejected(self, rng):
        kx, ky = random_spd_faces(rng, 8, 8)
        op = serial_operator(Grid2D(8, 8), kx, ky, halo=4)
        with pytest.raises(ConfigurationError, match="block Jacobi"):
            ChebyshevIteration(op, op.new_field(), op.new_field(),
                               EigenBounds(1.0, 4.0), halo_depth=4,
                               local_precond=BlockJacobiPreconditioner(op))

    def test_block_jacobi_inner_converges(self, rng):
        n = 12
        kx, ky = random_spd_faces(rng, n, n)
        # bounds must be of M^-1 A: lam_min from a preconditioned CG run
        op = serial_operator(Grid2D(n, n), kx, ky)
        bg = rng.standard_normal((n, n))
        b = Field.from_global(op.tile, 1, bg)
        M = BlockJacobiPreconditioner(op)
        warm = cg_solve(op, b, max_iters=30, eps=1e-14, preconditioner=M)
        bounds = spectrum_bounds(op, "block_jacobi", warm.alphas, warm.betas)
        rr = Field.from_global(op.tile, 1, bg)
        x = op.new_field()
        it = ChebyshevIteration(op, rr, x, bounds, local_precond=M)
        it.run(80)
        x_ref = reference_solution(kx, ky, bg)
        assert np.allclose(x.interior, x_ref, atol=1e-5)


class TestMatrixPowersEquivalence:
    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_deep_halo_matches_depth1_serial(self, rng, depth):
        """Matrix powers is an exact reorganisation: same iterates."""
        n = 16
        kx, ky = random_spd_faces(rng, n, n)
        bounds = true_bounds(kx, ky)
        bg = rng.standard_normal((n, n))

        def run(d):
            op = serial_operator(Grid2D(n, n), kx, ky, halo=max(d, 1))
            rr = Field.from_global(op.tile, max(d, 1), bg)
            x = op.new_field()
            ChebyshevIteration(op, rr, x, bounds, halo_depth=d).run(9)
            return x.interior.copy()

        assert np.allclose(run(1), run(depth), atol=1e-13)

    @pytest.mark.parametrize("size,depth", [(2, 2), (4, 3), (4, 4), (6, 2)])
    def test_deep_halo_matches_depth1_distributed(self, rng, size, depth):
        n = 24
        kx, ky = random_spd_faces(rng, n, n)
        bounds = true_bounds(kx, ky)
        bg = rng.standard_normal((n, n))
        from repro.comm import launch_spmd
        from repro.mesh import decompose
        from repro.solvers import StencilOperator2D

        def run(d):
            def rank_main(comm):
                tile = decompose(Grid2D(n, n), comm.size)[comm.rank]
                op = StencilOperator2D.from_global_faces(tile, d, kx, ky, comm)
                rr = Field.from_global(tile, d, bg)
                x = op.new_field()
                ChebyshevIteration(op, rr, x, bounds, halo_depth=d).run(10)
                return tile, x.interior.copy()

            out = launch_spmd(rank_main, size)
            full = np.zeros((n, n))
            for tile, xi in out:
                full[tile.global_slices] = xi
            return full

        assert np.allclose(run(1), run(depth), atol=1e-12)

    def test_exchange_counts_drop_with_depth(self, rng):
        """ceil(m/n) exchanges instead of m: the communication saving."""
        n = 24
        kx, ky = random_spd_faces(rng, n, n)
        bounds = true_bounds(kx, ky)
        from repro.comm import launch_spmd
        from repro.mesh import decompose
        from repro.solvers import StencilOperator2D

        def count(d, steps=12):
            def rank_main(comm):
                tile = decompose(Grid2D(n, n), comm.size)[comm.rank]
                log = EventLog()
                op = StencilOperator2D.from_global_faces(tile, d, kx, ky,
                                                         comm, events=log)
                rr = Field.from_global(tile, d, np.ones((n, n)))
                x = op.new_field()
                ChebyshevIteration(op, rr, x, bounds, halo_depth=d).run(steps)
                return log.count("halo_exchange", d)

            return launch_spmd(rank_main, 4)[0]

        assert count(1) == 12
        assert count(4) == 3
        assert count(8) == 2  # ceil(12/8)

    def test_redundant_cells_grow_with_depth(self, rng):
        n = 24
        kx, ky = random_spd_faces(rng, n, n)
        bounds = true_bounds(kx, ky)
        from repro.comm import launch_spmd
        from repro.mesh import decompose
        from repro.solvers import StencilOperator2D

        def cells(d, steps=8):
            def rank_main(comm):
                tile = decompose(Grid2D(n, n), comm.size,
                                 factors=(2, 2))[comm.rank]
                log = EventLog()
                op = StencilOperator2D.from_global_faces(tile, d, kx, ky,
                                                         comm, events=log)
                rr = Field.from_global(tile, d, np.ones((n, n)))
                x = op.new_field()
                ChebyshevIteration(op, rr, x, bounds, halo_depth=d).run(steps)
                return log.total("matvec", "cells")

            return launch_spmd(rank_main, 4)[0]

        assert cells(4) > cells(1)  # extended bounds -> redundant work


class TestChebyshevPreconditioner:
    def test_is_linear_and_spd(self, rng):
        """M^-1 must be a fixed SPD linear operator for PCG validity."""
        n = 8
        kx, ky = random_spd_faces(rng, n, n)
        bounds = true_bounds(kx, ky)
        op = serial_operator(Grid2D(n, n), kx, ky)
        M = ChebyshevPreconditioner(op, bounds, steps=4)
        cells = n * n
        mat = np.zeros((cells, cells))
        r, z = op.new_field(), op.new_field()
        for col in range(cells):
            e = np.zeros(cells)
            e[col] = 1.0
            r.interior[...] = e.reshape(n, n)
            M.apply(r, z)
            mat[:, col] = z.interior.ravel()
        assert np.allclose(mat, mat.T, atol=1e-12)
        eig = np.linalg.eigvalsh(0.5 * (mat + mat.T))
        assert eig.min() > 0

    def test_application_counts(self, rng):
        kx, ky = random_spd_faces(rng, 8, 8)
        bounds = true_bounds(kx, ky)
        op = serial_operator(Grid2D(8, 8), kx, ky)
        M = ChebyshevPreconditioner(op, bounds, steps=6)
        r, z = op.new_field(), op.new_field()
        r.interior[...] = 1.0
        M.apply(r, z)
        M.apply(r, z)
        assert M.applications == 2
        assert M.inner_steps == 6

    def test_copy_after_an_apply_binds_its_own_arrays(self):
        """A deepcopy of a preconditioner that has applied (its bound inner
        step holds raw addresses) carries no binding: it binds its own
        arrays at its next apply, gives the original's bits, and leaves
        the original's arrays untouched."""
        g, kx, ky, bg = crooked_pipe_system(24)
        op = serial_operator(g, kx, ky, halo=4)
        for depth, inner in ((1, "none"), (4, "diagonal")):
            M = ChebyshevPreconditioner(
                op, EigenBounds(1.0, 50.0), steps=6, halo_depth=depth,
                local_precond=make_local_preconditioner(op, inner))
            r, z = op.new_field(), op.new_field()
            r.interior[...] = bg
            M.apply(r, z)
            twin = copy.deepcopy(M)
            assert twin._it._step is None
            held = [f.data.copy() for f in (M._it.d, M._it.w, M._rr, z)]
            z_twin = twin.op.new_field()
            twin.apply(r, z_twin)
            assert all(np.array_equal(bits(f.data), bits(a)) for f, a in zip(
                (M._it.d, M._it.w, M._rr, z), held))
            M.apply(r, z)
            assert np.array_equal(bits(z_twin.data), bits(z.data))


class TestChebyshevSolve:
    def test_converges_to_reference(self):
        g, kx, ky, bg = crooked_pipe_system(24)
        x_ref = reference_solution(kx, ky, bg)
        op = serial_operator(g, kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        result = chebyshev_solve(op, b, eps=1e-10)
        assert result.converged
        assert np.allclose(result.x.interior, x_ref,
                           atol=1e-6 * np.abs(x_ref).max())
        assert result.eigen_bounds is not None
        assert result.warmup_iterations > 0

    def test_no_dots_between_checks(self):
        run = counted_solve(24, solver="chebyshev", eps=1e-10)
        result, log = run.result, run.events
        # warm-up pays 2/iter; the Chebyshev phase only pays per check
        checks = int(np.ceil(result.iterations / CHECK_INTERVAL))
        expected_max = 2 * result.warmup_iterations + 1 + checks + 1
        assert log.count_kind("allreduce") <= expected_max

    def test_warmup_convergence_short_circuits(self):
        g, kx, ky, bg = crooked_pipe_system(8)
        op = serial_operator(g, kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        result = chebyshev_solve(op, b, eps=1e-6, warmup_iters=200)
        assert result.converged
        assert result.iterations == 0  # all work in warm-up

    def test_explicit_bounds_skip_estimation(self, rng):
        kx, ky = random_spd_faces(rng, 12, 12)
        bounds = true_bounds(kx, ky)
        op = serial_operator(Grid2D(12, 12), kx, ky)
        b = Field.from_global(op.tile, 1, rng.standard_normal((12, 12)))
        result = chebyshev_solve(op, b, eps=1e-10, bounds=bounds,
                                 warmup_iters=2)
        assert result.converged
        assert result.eigen_bounds == (bounds.lam_min, bounds.lam_max)
