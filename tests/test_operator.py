"""Unit tests: the matrix-free stencil operator vs explicit assembly."""

import numpy as np
import pytest

from repro.comm import SerialComm, launch_spmd
from repro.mesh import Field, Grid2D, decompose
from repro.solvers import StencilOperator2D, embed_global
from repro.utils import ConfigurationError

from tests.helpers import (check_matvec, crooked_pipe_system, grid_of,
                           random_spd_faces, serial_operator)


class TestEmbedGlobal:
    def test_interior_window(self):
        local = np.zeros((6, 6))
        glob = np.arange(16.0).reshape(4, 4)
        embed_global(local, glob, -1, -1)
        assert np.array_equal(local[1:5, 1:5], glob)
        assert local[0].sum() == 0

    def test_clipped_window(self):
        local = np.zeros((4, 4))
        glob = np.arange(4.0).reshape(2, 2)
        embed_global(local, glob, 1, 1)
        # only global row/col 1 lands in local [0,0]
        assert local[0, 0] == glob[1, 1]
        assert local[1:].sum() == 0

    def test_disjoint_noop(self):
        local = np.zeros((3, 3))
        embed_global(local, np.ones((2, 2)), 10, 10)
        assert local.sum() == 0


class TestMatvecAgainstSparse:
    @pytest.mark.parametrize("n", [5, 8, 16])
    def test_serial_matches_assembly(self, rng, n):
        check_matvec(Grid2D(n, n), random_spd_faces(rng, n, n),
                     rng.standard_normal((n, n)))

    def test_crooked_pipe_coefficients(self):
        g, kx, ky, b = crooked_pipe_system(16)
        check_matvec(g, (kx, ky), b)

    def test_sparse_matrix_is_symmetric(self, rng):
        kx, ky = random_spd_faces(rng, 7, 9)
        A = StencilOperator2D.assemble_sparse(kx, ky)
        assert abs(A - A.T).max() < 1e-14

    def test_sparse_matrix_is_spd(self, rng):
        kx, ky = random_spd_faces(rng, 6, 6)
        A = StencilOperator2D.assemble_sparse(kx, ky).toarray()
        eig = np.linalg.eigvalsh(A)
        assert eig.min() >= 1.0 - 1e-10  # lam_min = 1 (constant nullspace of D)

    def test_constant_vector_eigenvalue_one(self, rng):
        """A * 1 = 1: insulated boundaries conserve constants."""
        kx, ky = random_spd_faces(rng, 8, 8)
        g = Grid2D(8, 8)
        op = serial_operator(g, kx, ky)
        p = Field.from_global(op.tile, 1, np.ones((8, 8)))
        w = op.new_field()
        op.apply(p, w)
        assert np.allclose(w.interior, 1.0, atol=1e-13)


class TestExtendedBounds:
    def test_extended_matches_global_matvec(self, rng):
        """Extended-bounds local matvec equals the global matvec
        restricted, for the 5-point and the 7-point operator."""
        for shape in ((16, 16), (8, 8, 8)):
            check_matvec(grid_of(shape), random_spd_faces(rng, *shape),
                         rng.standard_normal(shape), size=2 ** len(shape),
                         ext=2, factors=(2,) * len(shape))

    def test_extension_beyond_halo_rejected(self, rng):
        kx, ky = random_spd_faces(rng, 8, 8)
        op = serial_operator(Grid2D(8, 8), kx, ky, halo=2)
        p, w = op.new_field(), op.new_field()
        with pytest.raises(ConfigurationError):
            op.apply_noexchange(p, w, ext=2)  # needs halo >= 3

    def test_matvec_event_cells(self, rng):
        kx, ky = random_spd_faces(rng, 8, 8)
        op = serial_operator(Grid2D(8, 8), kx, ky)
        p, w = op.new_field(), op.new_field()
        op.apply(p, w)
        assert op.events.total("matvec", "cells") == 64


class TestReductions:
    def test_dot_matches_numpy(self, rng):
        kx, ky = random_spd_faces(rng, 6, 6)
        op = serial_operator(Grid2D(6, 6), kx, ky)
        a = Field.from_global(op.tile, 1, rng.standard_normal((6, 6)))
        b = Field.from_global(op.tile, 1, rng.standard_normal((6, 6)))
        assert op.dot(a, b) == pytest.approx(
            float(np.sum(a.interior * b.interior)))

    def test_dots_fused(self, rng):
        kx, ky = random_spd_faces(rng, 6, 6)
        op = serial_operator(Grid2D(6, 6), kx, ky)
        a = Field.from_global(op.tile, 1, rng.standard_normal((6, 6)))
        d1, d2 = op.dots([(a, a), (a, a)])
        assert d1 == pytest.approx(d2)

    def test_distributed_dot_equals_serial(self, rng):
        n = 12
        kx, ky = random_spd_faces(rng, n, n)
        g = Grid2D(n, n)
        x = rng.standard_normal((n, n))
        serial = float(np.sum(x * x))

        def rank_main(comm):
            tile = decompose(g, comm.size)[comm.rank]
            op = StencilOperator2D.from_global_faces(tile, 1, kx, ky, comm)
            a = Field.from_global(tile, 1, x)
            return op.dot(a, a)

        for v in launch_spmd(rank_main, 4):
            assert v == pytest.approx(serial, rel=1e-12)

    def test_residual(self, rng):
        g, kx, ky, bg = crooked_pipe_system(8)
        op = serial_operator(g, kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        x = op.new_field()  # zero
        r = op.new_field()
        op.residual(b, x, out=r)
        assert np.allclose(r.interior, b.interior)

    def test_diagonal_positive_and_dominant(self):
        g, kx, ky, _ = crooked_pipe_system(12)
        op = serial_operator(g, kx, ky)
        d = op.diagonal()
        assert np.all(d >= 1.0)


class TestConstruction:
    def test_mismatched_kx_ky_halo(self, rng):
        g = Grid2D(8, 8)
        t = decompose(g, 1)[0]
        kx, ky = random_spd_faces(rng, 8, 8)
        f1 = Field(t, 1)
        f2 = Field(t, 2)
        with pytest.raises(ConfigurationError):
            StencilOperator2D(kx=f1, ky=f2, comm=SerialComm())

    def test_coefficients_of_every_constructed_operator_are_frozen(self):
        """However an operator comes to exist — the classmethod, the bare
        constructor, a re-routed copy, the coarse levels of a multigrid
        hierarchy (which used to halo-exchange the coefficients of a live
        operator) — writing to its ``kx``/``ky`` raises: kernel backends
        cache what they derive from them."""
        from repro.multigrid.distributed import DistributedMultigrid
        g, kx, ky, _ = crooked_pipe_system(32)

        def rank_main(comm):
            tile = decompose(g, comm.size)[comm.rank]
            op = StencilOperator2D.from_global_faces(tile, 1, kx, ky, comm)
            bare = StencilOperator2D(kx=Field(tile, 1), ky=Field(tile, 1),
                                     comm=comm)
            ops = [op, bare, op.with_kernels("fused"),
                   *DistributedMultigrid(op).ops]
            refused = 0
            for o in ops:
                for coeff in (o.kx, o.ky):
                    with pytest.raises(ValueError, match="read-only"):
                        coeff.data[1, 1] = 2.0
                    refused += 1
            return len(ops), refused

        for n_ops, refused in launch_spmd(rank_main, 2):
            assert n_ops > 4 and refused == 2 * n_ops

    def test_with_kernels_routes_through_the_instance_it_is_given(self):
        """Two classes go by the name ``numpy`` (the compiled loops and
        their NumPy replay): an instance is taken as given, never mistaken
        for the operator's own by its name; a name still is."""
        from repro.kernels import NumpyBackend
        g, kx, ky, _ = crooked_pipe_system(8)
        op = StencilOperator2D.from_global_faces(decompose(g, 1)[0], 1,
                                                 kx, ky, SerialComm())
        assert op.with_kernels("numpy") is op
        pure = NumpyBackend()
        routed = op.with_kernels(pure)
        assert routed.kernels is pure and routed.exchanger.kernels is pure
        assert routed.kx is op.kx and op.kernels is not pure
