"""Unit tests: the 7-point operator and the solvers on one rank.

The 3D path is the 2D one — same operator class, fields and solvers —
so these are its serial (``SerialComm``) cases.
"""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro.mesh import Field, Grid3D
from repro.physics import face_coefficients
from repro.solvers import StencilOperator, cg_solve, jacobi_solve
from repro.utils import ConfigurationError

from tests.helpers import check_matvec, random_spd_faces, serial_operator


def random_op(rng, nz=4, ny=5, nx=6):
    """A serial operator with random coefficients, and its sparse matrix."""
    kappa = rng.uniform(0.2, 5.0, size=(nz, ny, nx))
    faces = face_coefficients(kappa, 0.7, 0.5, 0.3)
    return (serial_operator(Grid3D(nx, ny, nz), *faces),
            StencilOperator.assemble_sparse(*faces))


def field(op, values):
    return Field.from_global(op.tile, op.halo, values)


class TestOperator3D:
    def test_matvec_matches_sparse(self, rng):
        check_matvec(Grid3D(6, 5, 4), random_spd_faces(rng, 4, 5, 6),
                     rng.standard_normal((4, 5, 6)))

    def test_symmetric_spd(self, rng):
        A = random_op(rng, 3, 3, 3)[1].toarray()
        assert np.allclose(A, A.T)
        assert np.linalg.eigvalsh(A).min() >= 1.0 - 1e-10

    def test_constant_preserved(self, rng):
        op, _ = random_op(rng)
        out = op.new_field()
        op.apply(field(op, np.ones(op.tile.shape)), out)
        assert np.allclose(out.interior, 1.0, atol=1e-12)

    def test_diagonal_matches_sparse(self, rng):
        op, A = random_op(rng)
        assert np.allclose(op.diagonal().ravel(), A.diagonal())

    def test_shape_validation(self, rng):
        op, _ = random_op(rng)
        with pytest.raises(ConfigurationError):
            Field(op.tile, op.halo, np.zeros((2, 2, 2)))

    def test_inconsistent_faces_rejected(self):
        with pytest.raises(ConfigurationError):
            StencilOperator.assemble_sparse(np.zeros((2, 2, 3)),
                                            np.zeros((2, 3, 2)),
                                            np.zeros((4, 2, 2)))


class TestSolvers3D:
    def test_cg_matches_direct(self, rng):
        op, A = random_op(rng, 4, 4, 4)
        b = rng.standard_normal(op.tile.shape)
        x_ref = spla.spsolve(A.tocsc(), b.ravel()).reshape(b.shape)
        res = cg_solve(op, field(op, b), eps=1e-12)
        assert res.converged and 0 < res.iterations <= op.tile.n_cells
        assert np.allclose(res.x.interior, x_ref, atol=1e-9)

    def test_cg_zero_rhs(self, rng):
        op, _ = random_op(rng)
        res = cg_solve(op, op.new_field())
        assert res.iterations == 0 and res.converged

    def test_cg_does_not_mutate_x0(self, rng):
        op, _ = random_op(rng)
        x0 = field(op, np.ones(op.tile.shape))
        cg_solve(op, field(op, rng.standard_normal(op.tile.shape)), x0,
                 eps=1e-8)
        assert np.all(x0.interior == 1.0)

    def test_jacobi_matches_cg(self, rng):
        op, _ = random_op(rng, 3, 4, 3)
        b = field(op, rng.standard_normal(op.tile.shape))
        x_cg = cg_solve(op, b, eps=1e-12).x
        res = jacobi_solve(op, b, eps=1e-10, max_iters=100_000)
        assert res.converged
        assert np.allclose(res.x.interior, x_cg.interior, atol=1e-7)

    def test_heat_conservation_3d(self, rng):
        """Insulated box: one implicit step conserves total energy."""
        grid = Grid3D(6, 6, 6)
        kappa = rng.uniform(0.5, 2.0, size=grid.shape)
        rx = 0.1 / grid.dx ** 2
        op = serial_operator(grid, *face_coefficients(kappa, rx, rx, rx))
        u0 = rng.uniform(0.0, 5.0, size=grid.shape)
        u1 = cg_solve(op, field(op, u0), eps=1e-12).x
        assert u1.interior.sum() == pytest.approx(u0.sum(), rel=1e-10)
