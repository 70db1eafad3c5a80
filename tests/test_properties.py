"""Property-based tests (hypothesis) on core invariants.

These cover the algebraic properties the solvers rely on, over randomly
generated coefficient fields, decompositions and parameters — not just the
handful of examples in the unit tests.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.comm import SerialComm
from repro.mesh import Field, Grid2D, HaloExchanger, choose_factors, decompose
from repro.physics import face_coefficients
from repro.physics.deck import CROOKED_PIPE_DECK, parse_deck_text
from repro.solvers import StencilOperator, chebyshev_epsilon
from repro.solvers.eigen import EigenBounds

from tests.helpers import (check_exchange_fills_ghosts, check_factors_optimal,
                           check_matvec, grid_of, random_spd_faces,
                           serial_operator)

COMMON = dict(deadline=None,
              suppress_health_check=[HealthCheck.too_slow])


def faces_strategy(max_n=12):
    """(grid, faces, seed) in 2-D or 3-D: positive interior faces
    ``(kx, ky[, kz])``, zero boundaries."""

    @st.composite
    def build(draw):
        ndim = draw(st.sampled_from([2, 3]))
        shape = tuple(draw(st.integers(2, max_n if ndim == 2 else 6))
                      for _ in range(ndim))
        seed = draw(st.integers(0, 2 ** 31 - 1))
        faces = random_spd_faces(np.random.default_rng(seed), *shape,
                                 scale=draw(st.floats(0.05, 20.0)))
        return grid_of(shape), faces, seed

    return build()


class TestOperatorProperties:
    @given(faces_strategy())
    @settings(max_examples=30, **COMMON)
    def test_operator_symmetry(self, system):
        """<Au, v> == <u, Av> for the matrix-free operator."""
        g, faces, seed = system
        rng = np.random.default_rng(seed + 1)
        op = serial_operator(g, *faces)
        u = Field.from_global(op.tile, 1, rng.standard_normal(g.shape))
        v = Field.from_global(op.tile, 1, rng.standard_normal(g.shape))
        Au, Av = op.new_field(), op.new_field()
        op.apply(u, Au)
        op.apply(v, Av)
        lhs = float(np.sum(Au.interior * v.interior))
        rhs = float(np.sum(u.interior * Av.interior))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    @given(faces_strategy(), st.sampled_from(["numpy", "fused"]),
           st.sampled_from(["float32", "float64"]), st.integers(1, 4))
    @settings(max_examples=60, **COMMON)
    def test_operator_symmetry_per_backend_dtype_and_halo(
            self, system, backend, dtype, halo):
        """<Au, v> == <u, Av> through each backend's chains, in either
        precision and dimension, at every halo depth (whose padding the
        span kernels read through) — to the reduction envelope of the two
        products: ``64 eps ||A||_inf ||u|| ||v||``."""
        g, faces, seed = system
        rng = np.random.default_rng(seed + 3)
        tile = decompose(g, 1)[0]
        op = StencilOperator.from_global_faces(
            tile, halo, *faces, SerialComm(), dtype=np.dtype(dtype)
        ).with_kernels(backend)
        u, v = (Field.from_global(tile, halo, rng.standard_normal(g.shape),
                                  dtype=dtype) for _ in range(2))
        Au, Av = op.new_field(), op.new_field()
        op.apply(u, Au)
        vAv = op.apply_dot(v, Av)
        assert Au.dtype == np.dtype(dtype)
        norm_a = float((2.0 * op.diagonal() - 1.0).max())   # Gershgorin
        envelope = 64 * float(np.finfo(dtype).eps) * norm_a
        scale = math.sqrt(op.dot(u, u) * op.dot(v, v))
        assert abs(op.dot(Au, v) - op.dot(u, Av)) <= envelope * scale
        assert abs(vAv - op.dot(v, Av)) <= envelope * op.dot(v, v)

    @given(faces_strategy())
    @settings(max_examples=30, **COMMON)
    def test_operator_positive_definite(self, system):
        """<Au, u> >= <u, u>: A = I + (PSD) for any positive coefficients."""
        g, faces, seed = system
        rng = np.random.default_rng(seed + 2)
        op = serial_operator(g, *faces)
        u = Field.from_global(op.tile, 1, rng.standard_normal(g.shape))
        Au = op.new_field()
        op.apply(u, Au)
        uAu = float(np.sum(Au.interior * u.interior))
        uu = float(np.sum(u.interior ** 2))
        assert uAu >= uu * (1 - 1e-10)

    @given(faces_strategy())
    @settings(max_examples=30, **COMMON)
    def test_constant_invariance(self, system):
        g, faces, _ = system
        op = serial_operator(g, *faces)
        u = Field.from_global(op.tile, 1, np.full(g.shape, 3.7))
        Au = op.new_field()
        op.apply(u, Au)
        assert np.allclose(Au.interior, 3.7, atol=1e-11)

    @given(faces_strategy())
    @settings(max_examples=20, **COMMON)
    def test_matvec_matches_sparse_assembly(self, system):
        g, faces, seed = system
        check_matvec(g, faces,
                     np.random.default_rng(seed + 3).standard_normal(g.shape))


class TestHaloProperties:
    @given(
        nx=st.integers(6, 24),
        ny=st.integers(6, 24),
        depth=st.integers(1, 3),
        nranks=st.sampled_from([2, 3, 4, 6]),
    )
    @settings(max_examples=20, **COMMON)
    def test_exchange_reproduces_global_windows(self, nx, ny, depth, nranks):
        g = Grid2D(nx, ny)
        if min(min(t.shape) for t in decompose(g, nranks)) < depth:
            return  # tiles thinner than the halo: out of scope
        check_exchange_fills_ghosts(HaloExchanger, g, nranks, depth)

    @given(nranks=st.integers(1, 64), nx=st.integers(64, 512),
           ny=st.integers(64, 512))
    @settings(max_examples=40, **COMMON)
    def test_choose_factors_valid_and_optimal_enough(self, nranks, nx, ny):
        check_factors_optimal(nranks, nx, ny)

    @given(nranks=st.integers(1, 48), nx=st.integers(8, 64),
           ny=st.integers(8, 64))
    @settings(max_examples=40, **COMMON)
    def test_decomposition_partitions(self, nranks, nx, ny):
        g = Grid2D(nx, ny)
        px, py = choose_factors(nranks, nx, ny)
        if px > nx or py > ny:
            return
        tiles = decompose(g, nranks)
        total = sum(t.n_cells for t in tiles)
        assert total == nx * ny
        # neighbour symmetry: my right neighbour's left neighbour is me
        for t in tiles:
            if t.right is not None:
                assert tiles[t.right].left == t.rank
            if t.up is not None:
                assert tiles[t.up].down == t.rank


class TestChebyshevProperties:
    @given(lam_min=st.floats(0.1, 10.0), width=st.floats(0.01, 1000.0),
           m=st.integers(1, 40))
    @settings(max_examples=60, **COMMON)
    def test_epsilon_in_unit_interval(self, lam_min, width, m):
        b = EigenBounds(lam_min, lam_min + width)
        eps = chebyshev_epsilon(m, b)
        assert 0.0 < eps < 1.0

    @given(lam_min=st.floats(0.5, 5.0), kappa=st.floats(1.5, 1e4),
           m=st.integers(1, 20))
    @settings(max_examples=60, **COMMON)
    def test_epsilon_monotone_in_degree(self, lam_min, kappa, m):
        b = EigenBounds(lam_min, lam_min * kappa)
        assert chebyshev_epsilon(m + 1, b) < chebyshev_epsilon(m, b)

    @given(lam_min=st.floats(0.5, 5.0), kappa=st.floats(1.5, 1e4),
           m=st.integers(1, 30))
    @settings(max_examples=60, **COMMON)
    def test_epsilon_classic_bound(self, lam_min, kappa, m):
        """eps_m <= 2 q^m with q = (sqrt(k)-1)/(sqrt(k)+1)."""
        b = EigenBounds(lam_min, lam_min * kappa)
        q = (math.sqrt(kappa) - 1) / (math.sqrt(kappa) + 1)
        assert chebyshev_epsilon(m, b) <= 2 * q ** m + 1e-12


class TestConductionProperties:
    @given(
        seed=st.integers(0, 2 ** 31 - 1),
        ny=st.integers(2, 16),
        nx=st.integers(2, 16),
        mean=st.sampled_from(["harmonic", "arithmetic"]),
    )
    @settings(max_examples=40, **COMMON)
    def test_face_mean_between_cells(self, seed, ny, nx, mean):
        rng = np.random.default_rng(seed)
        kappa = rng.uniform(0.1, 10.0, (ny, nx))
        kx, ky = face_coefficients(kappa, 1.0, 1.0, mean=mean)
        lo = np.minimum(kappa[:, :-1], kappa[:, 1:])
        hi = np.maximum(kappa[:, :-1], kappa[:, 1:])
        inner = kx[:, 1:-1]
        assert np.all(inner >= lo - 1e-12)
        assert np.all(inner <= hi + 1e-12)

    @given(seed=st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, **COMMON)
    def test_symmetric_in_neighbours(self, seed):
        rng = np.random.default_rng(seed)
        kappa = rng.uniform(0.1, 10.0, (6, 6))
        kx, _ = face_coefficients(kappa, 1.0, 1.0)
        kx2, _ = face_coefficients(kappa[:, ::-1], 1.0, 1.0)
        assert np.allclose(kx, kx2[:, ::-1])


class TestDeckProperties:
    @given(
        n=st.integers(4, 256),
        eps_exp=st.integers(-15, -4),
        inner=st.integers(1, 40),
        solver=st.sampled_from(["use_cg", "use_ppcg", "use_jacobi",
                                "use_chebyshev"]),
    )
    @settings(max_examples=40, **COMMON)
    def test_parse_roundtrip(self, n, eps_exp, inner, solver):
        text = (f"*tea\nstate 1 density=1.0 energy=1.0\n"
                f"x_cells={n}\ny_cells={n}\n{solver}\n"
                f"tl_eps=1e{eps_exp}\ntl_ppcg_inner_steps={inner}\n*endtea")
        deck = parse_deck_text(text)
        assert deck.x_cells == n
        assert deck.tl_eps == pytest.approx(10.0 ** eps_exp)
        assert deck.tl_ppcg_inner_steps == inner
        assert deck.solver == solver.replace("use_", "")

    @given(n=st.integers(8, 1024))
    @settings(max_examples=20, **COMMON)
    def test_crooked_pipe_deck_scales(self, n):
        deck = parse_deck_text(CROOKED_PIPE_DECK.format(n=n))
        assert deck.grid.nx == n
        assert len(deck.states) == 5


class TestThomasProperty:
    @given(
        seed=st.integers(0, 2 ** 31 - 1),
        ny=st.integers(2, 24),
        nx=st.integers(2, 10),
    )
    @settings(max_examples=30, **COMMON)
    def test_block_jacobi_solves_its_blocks(self, seed, ny, nx):
        """M z = r restricted to each strip: verify A_strip z = r."""
        from repro.solvers import BlockJacobiPreconditioner
        rng = np.random.default_rng(seed)
        kx = np.zeros((ny, nx + 1))
        ky = np.zeros((ny + 1, nx))
        kx[:, 1:nx] = rng.uniform(0.1, 2.0, (ny, nx - 1))
        ky[1:ny, :] = rng.uniform(0.1, 2.0, (ny - 1, nx))
        op = serial_operator(Grid2D(nx, ny), kx, ky)
        M = BlockJacobiPreconditioner(op)
        r_arr = rng.standard_normal((ny, nx))
        r = Field.from_global(op.tile, 1, r_arr)
        z = op.new_field()
        M.apply(r, z)
        diag = (1.0 + kx[:, :-1] + kx[:, 1:] + ky[:-1, :] + ky[1:, :])
        zi = z.interior
        for j in range(nx):
            k = 0
            while k < ny:
                L = min(4, ny - k)
                for i in range(L):
                    val = diag[k + i, j] * zi[k + i, j]
                    if i > 0:
                        val -= ky[k + i, j] * zi[k + i - 1, j]
                    if i < L - 1:
                        val -= ky[k + i + 1, j] * zi[k + i + 1, j]
                    assert val == pytest.approx(r_arr[k + i, j],
                                                rel=1e-9, abs=1e-9)
                k += L
