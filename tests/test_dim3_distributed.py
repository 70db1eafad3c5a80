"""Tests: distributed 3D — decomposition, halos, and the solvers.

The 3D cases of the one mesh / operator / solver stack: the same
``decompose``, ``Field``, ``HaloExchanger``, ``StencilOperator`` and
solver functions as 2D, on cuboid tiles.
"""

import numpy as np
import pytest

from repro.comm import SerialComm, launch_spmd
from repro.mesh import Field, Grid3D, HaloExchanger, choose_factors, decompose
from repro.solvers import SolverOptions, StencilOperator
from repro.utils import CommunicationError, ConfigurationError, EventLog

from tests.helpers import (check_exchange_fills_ghosts, check_matvec,
                           distributed_solve, serial_operator, system_3d)

pytestmark = pytest.mark.distributed


def solve(size, tol=1e-8, **options):
    """The 12^3 system solved on ``size`` ranks with ``SolverOptions(
    **options)``: converged, and within ``tol`` of the direct solution."""
    g, faces, bg, x_ref = system_3d()
    x, res = distributed_solve(g, *faces, bg, SolverOptions(**options), size)
    assert res.converged
    assert np.abs(x - x_ref).max() <= tol * np.abs(x_ref).max()
    return res


class TestDecomposition3D:
    def test_factors_minimise_surface(self):
        assert choose_factors(8, 64, 64, 64) == (2, 2, 2)
        px, py, pz = choose_factors(4, 1000, 10, 10)
        assert px == 4 and py == pz == 1

    def test_partition_covers_grid(self):
        g = Grid3D(7, 6, 5)
        for nranks in (1, 2, 4, 6, 8):
            tiles = decompose(g, nranks)
            total = sum(t.n_cells for t in tiles)
            assert total == g.n_cells

    def test_neighbor_symmetry(self):
        tiles = decompose(Grid3D(8, 8, 8), 8, factors=(2, 2, 2))
        for t in tiles:
            for side, opposite in (("left", "right"), ("down", "up"),
                                   ("back", "front")):
                nbr = getattr(t, side)
                if nbr is not None:
                    assert getattr(tiles[nbr], opposite) == t.rank

    def test_center_tile_six_neighbors(self):
        tiles = decompose(Grid3D(9, 9, 9), 27, factors=(3, 3, 3))
        center = tiles[13]
        assert center.n_neighbors == 6
        assert tiles[0].n_neighbors == 3

    def test_extension_clipping(self):
        tiles = decompose(Grid3D(8, 8, 8), 8, factors=(2, 2, 2))
        ext = tiles[0].extension(2)
        assert ext == {"left": 0, "right": 2, "down": 0, "up": 2,
                       "back": 0, "front": 2}

    def test_too_many_ranks(self):
        from repro.utils import DecompositionError
        with pytest.raises(DecompositionError):
            decompose(Grid3D(2, 2, 2), 16)


class TestHalo3D:
    @pytest.mark.parametrize("size,depth", [(2, 1), (4, 2), (8, 2), (8, 3)])
    def test_exchange_fills_all_ghosts(self, size, depth):
        check_exchange_fills_ghosts(HaloExchanger, Grid3D(12, 12, 12), size,
                                    depth)

    def test_depth_exceeds_halo(self):
        t = decompose(Grid3D(4, 4, 4), 1)[0]
        f = Field(t, halo=1)
        with pytest.raises(CommunicationError):
            HaloExchanger(SerialComm()).exchange(f, depth=2)

    def test_event_recorded(self):
        g = Grid3D(8, 8, 8)

        def rank_main(comm):
            t = decompose(g, comm.size)[comm.rank]
            f = Field(t, 2)
            log = EventLog()
            HaloExchanger(comm, events=log).exchange(f, depth=2)
            return log

        log = launch_spmd(rank_main, 2)[0]
        assert log.count("halo_exchange", 2) == 1
        # Two 8x8 faces of depth 2, sent and received, at 8 bytes a cell.
        assert log.total("halo_exchange", "bytes", 2) == 2 * 8 * 8 * 2 * 8


class TestOperator3DDistributed:
    def test_matvec_matches_serial_assembly(self):
        g, faces, bg, _ = system_3d()
        for size in (1, 4, 8):
            check_matvec(g, faces, bg, size)

    def test_diagonal_matches_sparse(self):
        g, faces, _, _ = system_3d(8)
        A = StencilOperator.assemble_sparse(*faces)
        assert np.allclose(serial_operator(g, *faces).diagonal().ravel(),
                           A.diagonal())

    def test_diagonal_padded_interior_consistent(self):
        g, faces, _, _ = system_3d(8)
        op = serial_operator(g, *faces, halo=2)
        pad = op.diagonal_padded()
        assert np.allclose(pad[op.kx.region(0)], op.diagonal())

    def test_mismatched_fields_rejected(self):
        t = decompose(Grid3D(4, 4, 4), 1)[0]
        with pytest.raises(ConfigurationError):
            StencilOperator(kx=Field(t, 1), ky=Field(t, 2), kz=Field(t, 1),
                            comm=SerialComm())
        with pytest.raises(ConfigurationError):   # a 3D tile needs its kz
            StencilOperator(kx=Field(t, 1), ky=Field(t, 1), comm=SerialComm())


class TestSharedSolversIn3D:
    """The solver implementations, unchanged, on 3D problems."""

    @pytest.mark.parametrize("size", [1, 2, 4, 8])
    def test_cg(self, size):
        solve(size, solver="cg", eps=1e-11)

    @pytest.mark.parametrize("size,depth", [(1, 1), (4, 2), (8, 3)])
    def test_ppcg_with_3d_matrix_powers(self, size, depth):
        solve(size, solver="ppcg", eps=1e-11, ppcg_inner_steps=8,
              halo_depth=depth, eigen_warmup_iters=10)

    def test_matrix_powers_depth_invariance_3d(self):
        iterations = {solve(8, solver="ppcg", eps=1e-11, ppcg_inner_steps=6,
                            halo_depth=depth,
                            eigen_warmup_iters=10).iterations
                      for depth in (1, 2, 3)}
        assert len(iterations) == 1

    def test_chebyshev(self):
        solve(4, tol=1e-5, solver="chebyshev", eps=1e-9,
              eigen_warmup_iters=15)

    def test_cg_fused(self):
        solve(4, solver="cg_fused", eps=1e-11)

    def test_diagonal_preconditioner_3d(self):
        solve(1, solver="cg", eps=1e-11, preconditioner="diagonal")

    def test_block_jacobi_rejected_in_3d(self):
        """Everything 2D by construction says so, not an unpacking error."""
        from repro.multigrid.mgcg import mgcg_solve
        from repro.solvers import BlockJacobiPreconditioner, deflated_cg_solve
        g, faces, bg, _ = system_3d(6)
        op = serial_operator(g, *faces)
        with pytest.raises(ConfigurationError, match="2D"):
            BlockJacobiPreconditioner(op)
        b = Field.from_global(op.tile, 1, bg)
        for solver in (deflated_cg_solve, mgcg_solve):
            with pytest.raises(ConfigurationError, match="2D"):
                solver(op, b)
