"""Property-based tests for the 3D cases of the distributed structures
(``tests/test_properties.py`` draws the operator properties in both
dimensions; these pin the 3D side and the decompositions)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.comm import launch_spmd
from repro.mesh import Field, Grid3D, HaloExchanger, decompose
from repro.physics import face_coefficients

from tests.helpers import (check_exchange_fills_ghosts, check_matvec,
                           serial_operator)

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def grids_3d(draw, max_n=10):
    nx = draw(st.integers(4, max_n))
    ny = draw(st.integers(4, max_n))
    nz = draw(st.integers(4, max_n))
    seed = draw(st.integers(0, 2 ** 31 - 1))
    return Grid3D(nx, ny, nz), np.random.default_rng(seed)


def random_faces(g, rng):
    return face_coefficients(rng.uniform(0.1, 5.0, g.shape), 0.7, 0.5, 0.3)


class TestHalo3DProperties:
    @given(
        params=grids_3d(max_n=12),
        nranks=st.sampled_from([2, 4, 6, 8]),
        depth=st.integers(1, 2),
    )
    @settings(max_examples=12, **COMMON)
    def test_exchange_reproduces_global_windows(self, params, nranks, depth):
        g, _ = params
        if min(min(t.shape) for t in decompose(g, nranks)) < depth:
            return
        check_exchange_fills_ghosts(HaloExchanger, g, nranks, depth)


class TestOperator3DProperties:
    @given(params=grids_3d(max_n=8))
    @settings(max_examples=15, **COMMON)
    def test_symmetry_and_constant_invariance(self, params):
        g, rng = params
        op = serial_operator(g, *random_faces(g, rng))
        u, v, ones = (Field.from_global(op.tile, 1, a) for a in (
            rng.standard_normal(g.shape), rng.standard_normal(g.shape),
            np.ones(g.shape)))
        Au, Av, Aones = (op.new_field() for _ in range(3))
        op.apply(u, Au)
        op.apply(v, Av)
        assert op.dot(Au, v) == pytest.approx(op.dot(u, Av),
                                              rel=1e-10, abs=1e-10)
        op.apply(ones, Aones)
        assert np.allclose(Aones.interior, 1.0, atol=1e-12)

    @given(params=grids_3d(max_n=7))
    @settings(max_examples=10, **COMMON)
    def test_matvec_matches_sparse(self, params):
        g, rng = params
        check_matvec(g, random_faces(g, rng), rng.standard_normal(g.shape))

    @given(nranks=st.sampled_from([2, 4, 8]), params=grids_3d(max_n=10))
    @settings(max_examples=8, **COMMON)
    def test_distributed_dot_decomposition_invariant(self, nranks, params):
        g, rng = params
        glob = rng.standard_normal(g.shape)
        expect = float(np.sum(glob * glob))

        def rank_main(comm):
            t = decompose(g, comm.size)[comm.rank]
            f = Field.from_global(t, 1, glob)
            return comm.allreduce(f.local_dot(f))

        for v in launch_spmd(rank_main, nranks):
            assert v == pytest.approx(expect, rel=1e-12)
