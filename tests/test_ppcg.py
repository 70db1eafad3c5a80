"""Unit tests: CPPCG (the paper's solver)."""

import hashlib

import numpy as np
import pytest

from repro.mesh import Field, Grid2D
from repro.solvers import (
    EigenBounds,
    cg_solve,
    ppcg_solve,
)
from repro.solvers.preconditioners import (
    BlockJacobiPreconditioner,
    DiagonalPreconditioner,
)
from repro.utils import ConfigurationError

from tests.helpers import (
    counted_solve,
    crooked_pipe_system,
    random_spd_faces,
    reference_solution,
    serial_operator,
)


class TestConvergence:
    @pytest.mark.parametrize("inner", [4, 10, 20])
    def test_matches_direct_solve(self, inner):
        g, kx, ky, bg = crooked_pipe_system(32)
        x_ref = reference_solution(kx, ky, bg)
        op = serial_operator(g, kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        result = ppcg_solve(op, b, eps=1e-12, inner_steps=inner)
        assert result.converged
        assert np.allclose(result.x.interior, x_ref,
                           atol=1e-8 * np.abs(x_ref).max())

    def test_matrix_powers_same_answer(self):
        g, kx, ky, bg = crooked_pipe_system(32)

        def solve(depth):
            op = serial_operator(g, kx, ky, halo=depth)
            b = Field.from_global(op.tile, depth, bg)
            return ppcg_solve(op, b, eps=1e-12, inner_steps=10,
                              halo_depth=depth)

        r1, r4 = solve(1), solve(4)
        assert r1.iterations == r4.iterations  # identical iterates
        assert np.allclose(r1.x.interior, r4.x.interior, atol=1e-12)

    def test_random_system(self, rng):
        n = 24
        kx, ky = random_spd_faces(rng, n, n, scale=10.0)
        bg = rng.standard_normal((n, n))
        x_ref = reference_solution(kx, ky, bg)
        op = serial_operator(Grid2D(n, n), kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        result = ppcg_solve(op, b, eps=1e-12, inner_steps=8)
        assert np.allclose(result.x.interior, x_ref, atol=1e-8)

    def test_warmup_convergence_short_circuits(self):
        g, kx, ky, bg = crooked_pipe_system(8)
        op = serial_operator(g, kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        result = ppcg_solve(op, b, eps=1e-6, warmup_iters=500)
        assert result.converged
        assert result.iterations == 0
        assert result.warmup_iterations > 0

    def test_diagonal_inner_preconditioner(self):
        g, kx, ky, bg = crooked_pipe_system(24)
        x_ref = reference_solution(kx, ky, bg)
        op = serial_operator(g, kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        result = ppcg_solve(op, b, eps=1e-11,
                            inner_preconditioner="diagonal")
        assert result.converged
        assert np.allclose(result.x.interior, x_ref, atol=1e-6)

    @pytest.mark.parametrize("size", [2, 4])
    @pytest.mark.parametrize("depth", [1, 2, 4])
    def test_diagonal_inner_on_ranks_converges_as_on_one(self, depth, size):
        """The first Chebyshev direction is ``M^-1 r / theta`` on the whole
        matrix-powers region, exchange-free: the inverse diagonal's
        outermost ghost layer toward a neighbour must be the neighbour's
        (it is exchanged once, at construction), not the padding of a
        face beyond the array — with which 2 and 4 ranks stalled at
        depths 1 and 2 and needed 21/23 outer iterations at depth 4."""
        def outer(ranks):
            result = counted_solve(48, ranks, solver="ppcg", eps=1e-10,
                                   max_iters=300, halo_depth=depth,
                                   preconditioner="diagonal",
                                   ppcg_inner_steps=10).result
            assert result.converged
            return result.iterations

        assert outer(size) == outer(1) == 8

    def test_block_jacobi_inner_depth1(self):
        g, kx, ky, bg = crooked_pipe_system(24)
        op = serial_operator(g, kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        result = ppcg_solve(op, b, eps=1e-11,
                            inner_preconditioner="block_jacobi")
        assert result.converged

    def test_explicit_bounds(self, rng):
        from repro.solvers import StencilOperator2D
        n = 16
        kx, ky = random_spd_faces(rng, n, n)
        A = StencilOperator2D.assemble_sparse(kx, ky).toarray()
        eig = np.linalg.eigvalsh(A)
        bounds = EigenBounds(eig[0], eig[-1] * 1.001)
        op = serial_operator(Grid2D(n, n), kx, ky)
        b = Field.from_global(op.tile, 1, rng.standard_normal((n, n)))
        result = ppcg_solve(op, b, eps=1e-10, bounds=bounds, warmup_iters=3)
        assert result.converged
        assert result.eigen_bounds == (bounds.lam_min, bounds.lam_max)


class TestCommunicationAvoidance:
    def test_fewer_dot_products_than_cg(self):
        """The headline claim: CPPCG needs far fewer global reductions."""
        def count(**options):
            run = counted_solve(48, eps=1e-10, **options)
            assert run.result.converged
            return run.events.count_kind("allreduce")

        cg_dots = count(solver="cg")
        ppcg_dots = count(solver="ppcg", ppcg_inner_steps=10)
        assert ppcg_dots < cg_dots / 2

    def test_same_matvec_order_as_cg(self):
        """O'Leary: polynomial preconditioning cannot cut total matvecs."""
        g, kx, ky, bg = crooked_pipe_system(48)
        op1 = serial_operator(g, kx, ky)
        b1 = Field.from_global(op1.tile, 1, bg)
        cg = cg_solve(op1, b1, eps=1e-10)
        op2 = serial_operator(g, kx, ky)
        b2 = Field.from_global(op2.tile, 1, bg)
        pp = ppcg_solve(op2, b2, eps=1e-10, inner_steps=10)
        cg_matvecs = op1.events.count("matvec")
        pp_matvecs = op2.events.count("matvec")
        # within a small factor of each other (not an order better)
        assert 0.3 < pp_matvecs / cg_matvecs < 3.0

    def test_outer_iterations_shrink_with_inner_steps(self):
        g, kx, ky, bg = crooked_pipe_system(48)

        def outer(m):
            op = serial_operator(g, kx, ky)
            b = Field.from_global(op.tile, 1, bg)
            return ppcg_solve(op, b, eps=1e-10, inner_steps=m).iterations

        o2, o8, o20 = outer(2), outer(8), outer(20)
        assert o20 < o8 < o2

    def test_inner_iteration_accounting(self):
        g, kx, ky, bg = crooked_pipe_system(32)
        op = serial_operator(g, kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        result = ppcg_solve(op, b, eps=1e-10, inner_steps=7)
        # one preconditioner application per outer iteration, plus the
        # initial application before the loop
        assert result.inner_iterations == 7 * (result.iterations + 1)

    @pytest.mark.parametrize("inner, digest", [
        ("diagonal", "1ac7d94988f77471"), ("block_jacobi", "3053a073e3b2c094")])
    def test_inner_preconditioner_is_built_once(self, inner, digest,
                                                monkeypatch):
        """The warm-up and the Chebyshev inner steps share one local
        preconditioner: block Jacobi factorises its strips once, the
        diagonal exchanges its halo once — with the solution bits of
        building it twice (the digest pins them)."""
        cls = {"diagonal": DiagonalPreconditioner,
               "block_jacobi": BlockJacobiPreconditioner}[inner]
        built, init = [], cls.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
        g, kx, ky, bg = crooked_pipe_system(32)
        op = serial_operator(g, kx, ky)
        result = ppcg_solve(op, Field.from_global(op.tile, 1, bg),
                            eps=1e-10, inner_steps=10,
                            inner_preconditioner=inner)
        assert result.converged and len(built) == 1
        assert hashlib.sha256(
            result.x.data.tobytes()).hexdigest()[:16] == digest


class TestValidation:
    def test_halo_depth_exceeds_field(self):
        g, kx, ky, bg = crooked_pipe_system(16)
        op = serial_operator(g, kx, ky, halo=2)
        b = Field.from_global(op.tile, 2, bg)
        with pytest.raises(ConfigurationError, match="halo"):
            ppcg_solve(op, b, halo_depth=4)

    def test_block_jacobi_with_matrix_powers(self):
        g, kx, ky, bg = crooked_pipe_system(16)
        op = serial_operator(g, kx, ky, halo=4)
        b = Field.from_global(op.tile, 4, bg)
        with pytest.raises(ConfigurationError, match="block Jacobi"):
            ppcg_solve(op, b, halo_depth=4,
                       inner_preconditioner="block_jacobi")

    def test_history_spans_both_phases(self):
        g, kx, ky, bg = crooked_pipe_system(32)
        op = serial_operator(g, kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        result = ppcg_solve(op, b, eps=1e-10, warmup_iters=10)
        assert len(result.history) == (result.warmup_iterations
                                       + result.iterations + 1)
