"""Unit tests: the geometric-multigrid baseline (BoomerAMG stand-in)."""

import numpy as np
import pytest

from repro.mesh import Field, Grid2D
from repro.multigrid import (
    Multigrid,
    MultigridPreconditioner,
    mgcg_solve,
    multigrid_solve,
    prolong_constant,
    restrict_full_weighting,
)
from repro.multigrid.mgcg import coarsen_operator
from repro.solvers import StencilOperator2D, cg_solve
from repro.utils import ConfigurationError

from tests.helpers import (
    crooked_pipe_system,
    random_spd_faces,
    reference_solution,
    serial_operator,
)


def faces_operator(kx, ky):
    """The one-rank operator of global faces ``(kx, ky)``."""
    ny, nx = kx.shape[0], ky.shape[1]
    return serial_operator(Grid2D(nx, ny), kx, ky)


def level_faces(lop):
    """A one-rank level's global ``(kx, ky)`` face arrays."""
    t, h = lop.tile, lop.halo
    return (lop.kx.data[h:h + t.ny, h:h + t.nx + 1],
            lop.ky.data[h:h + t.ny + 1, h:h + t.nx])


def apply_level(lop, u):
    """``A u`` on a one-rank level, as an array."""
    out = lop.new_field()
    lop.apply(Field.from_global(lop.tile, lop.halo, u), out)
    return out.interior.copy()


class TestLevels:
    def test_level_matvec_matches_sparse(self, rng):
        kx, ky = random_spd_faces(rng, 16, 16)
        coarse = Multigrid(faces_operator(kx, ky)).ops[1]
        A = StencilOperator2D.assemble_sparse(*level_faces(coarse))
        x = rng.standard_normal((8, 8))
        assert np.allclose(apply_level(coarse, x).ravel(), A @ x.ravel())

    def test_hierarchy_depth(self, rng):
        kx, ky = random_spd_faces(rng, 64, 64)
        mg = Multigrid(faces_operator(kx, ky), min_size=4)
        assert [lop.tile.shape for lop in mg.ops] == [
            (64, 64), (32, 32), (16, 16), (8, 8), (4, 4)]

    def test_hierarchy_stops_at_odd(self, rng):
        kx, ky = random_spd_faces(rng, 24, 24)
        mg = Multigrid(faces_operator(kx, ky), min_size=2)
        # 24 -> 12 -> 6 -> 3 (odd, stop)
        assert mg.ops[-1].tile.shape == (3, 3)

    def test_coarsen_odd_raises(self, rng):
        kx, ky = random_spd_faces(rng, 5, 6)
        with pytest.raises(ConfigurationError):
            coarsen_operator(faces_operator(kx, ky))

    def test_coarse_operator_preserves_constants(self, rng):
        """Galerkin coarsening keeps A_c * 1 = 1 (insulated boundaries)."""
        kx, ky = random_spd_faces(rng, 16, 16)
        coarse = coarsen_operator(faces_operator(kx, ky))
        ones = np.ones(coarse.tile.shape)
        assert np.allclose(apply_level(coarse, ones), 1.0, atol=1e-12)

    def test_coarse_faces_zero_on_boundary(self, rng):
        kx, ky = random_spd_faces(rng, 8, 8)
        ckx, cky = level_faces(coarsen_operator(faces_operator(kx, ky)))
        assert np.all(ckx[:, 0] == 0) and np.all(ckx[:, -1] == 0)
        assert np.all(cky[0, :] == 0) and np.all(cky[-1, :] == 0)


class TestTransfers:
    def test_restrict_prolong_adjoint(self, rng):
        """<R u, v>_c * 4 == <u, P v>_f : the transpose pair property."""
        u = rng.standard_normal((8, 8))
        v = rng.standard_normal((4, 4))
        lhs = np.sum(restrict_full_weighting(u) * v)
        rhs = np.sum(u * prolong_constant(v)) / 4.0
        assert lhs == pytest.approx(rhs)

    def test_restrict_constant(self):
        assert np.allclose(restrict_full_weighting(np.full((6, 6), 3.0)), 3.0)

    def test_prolong_constant_values(self):
        c = np.array([[1.0, 2.0]])
        f = prolong_constant(c)
        assert f.shape == (2, 4)
        assert np.array_equal(f, [[1, 1, 2, 2], [1, 1, 2, 2]])

    def test_restrict_odd_raises(self):
        with pytest.raises(ConfigurationError):
            restrict_full_weighting(np.zeros((5, 4)))


class TestSmoother:
    def test_jacobi_smooth_reduces_residual(self, rng):
        kx, ky = random_spd_faces(rng, 16, 16)
        mg = Multigrid(faces_operator(kx, ky))
        level = mg.ops[0]
        bg = rng.standard_normal((16, 16))
        b, u = Field.from_global(level.tile, 1, bg), level.new_field()
        r0 = np.linalg.norm(bg - apply_level(level, u.interior))
        mg.smooth(0, u, b, sweeps=5)
        r1 = np.linalg.norm(bg - apply_level(level, u.interior))
        assert r1 < r0

    def test_invalid_omega(self, rng):
        kx, ky = random_spd_faces(rng, 4, 4)
        with pytest.raises(ConfigurationError):
            Multigrid(faces_operator(kx, ky), omega=1.5)


class TestVCycle:
    def test_cycle_contracts_error(self, rng):
        g, kx, ky, bg = crooked_pipe_system(32)
        op = serial_operator(g, kx, ky)
        mg = Multigrid(op)
        x_ref = reference_solution(kx, ky, bg)
        b, x, r = Field.from_global(op.tile, 1, bg), op.new_field(), \
            op.new_field()
        errs = []
        for _ in range(6):
            op.residual(b, x, out=r)
            x.interior += mg.cycle(r).interior
            errs.append(np.linalg.norm(x.interior - x_ref))
        # geometric-ish convergence of the error
        assert errs[-1] < errs[0] * 0.2

    def test_coarse_solve_exact(self, rng):
        kx, ky = random_spd_faces(rng, 8, 8)
        mg = Multigrid(faces_operator(kx, ky), min_size=4)
        coarse = mg.ops[-1]
        bg = rng.standard_normal(coarse.tile.shape)
        x = coarse.new_field()
        mg.coarse.solve(Field.from_global(coarse.tile, 1, bg), x)
        assert np.allclose(apply_level(coarse, x.interior), bg, atol=1e-10)

    def test_single_level_is_direct(self, rng):
        kx, ky = random_spd_faces(rng, 6, 6)
        mg = Multigrid(faces_operator(kx, ky), min_size=6)
        assert mg.n_levels == 1
        bg = rng.standard_normal((6, 6))
        x = mg.cycle(Field.from_global(mg.ops[0].tile, 1, bg))
        assert np.allclose(apply_level(mg.ops[0], x.interior), bg,
                           atol=1e-10)


class TestMGCG:
    def test_converges_fast(self):
        g, kx, ky, bg = crooked_pipe_system(32)
        x_ref = reference_solution(kx, ky, bg)
        op = serial_operator(g, kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        result = mgcg_solve(op, b, eps=1e-11)
        assert result.converged
        assert np.allclose(result.x.interior, x_ref, atol=1e-7)
        assert result.n_levels >= 3

    def test_far_fewer_iterations_than_cg(self):
        """The baseline's low-node-count advantage: tiny iteration counts."""
        g, kx, ky, bg = crooked_pipe_system(48)
        op1 = serial_operator(g, kx, ky)
        b1 = Field.from_global(op1.tile, 1, bg)
        plain = cg_solve(op1, b1, eps=1e-10)
        op2 = serial_operator(g, kx, ky)
        b2 = Field.from_global(op2.tile, 1, bg)
        mg = mgcg_solve(op2, b2, eps=1e-10)
        assert mg.iterations < plain.iterations / 4

    def test_iterations_nearly_mesh_independent(self):
        its = []
        for n in (16, 32, 64):
            g, kx, ky, bg = crooked_pipe_system(n)
            op = serial_operator(g, kx, ky)
            b = Field.from_global(op.tile, 1, bg)
            its.append(mgcg_solve(op, b, eps=1e-10).iterations)
        assert its[-1] <= its[0] * 3  # vs ~4x growth for plain CG

    def test_preconditioner_spd(self, rng):
        """The V-cycle preconditioner must be symmetric for CG validity."""
        n = 8
        kx, ky = random_spd_faces(rng, n, n)
        op = serial_operator(Grid2D(n, n), kx, ky)
        M = MultigridPreconditioner(op)
        cells = n * n
        mat = np.zeros((cells, cells))
        r, z = op.new_field(), op.new_field()
        for col in range(cells):
            e = np.zeros(cells)
            e[col] = 1.0
            r.interior[...] = e.reshape(n, n)
            M.apply(r, z)
            mat[:, col] = z.interior.ravel()
        assert np.allclose(mat, mat.T, atol=1e-10)
        assert np.linalg.eigvalsh(0.5 * (mat + mat.T)).min() > 0


class TestStandaloneMG:
    def test_multigrid_solve(self):
        g, kx, ky, bg = crooked_pipe_system(32)
        x_ref = reference_solution(kx, ky, bg)
        op = serial_operator(g, kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        result = multigrid_solve(op, b, eps=1e-10)
        assert result.converged
        assert result.solver == "multigrid"
        assert np.allclose(result.x.interior, x_ref, atol=1e-6)
