"""Tests: the hybrid domain-decomposition + agglomeration multigrid."""

import numpy as np
import pytest

from repro.comm import SerialComm, launch_spmd
from repro.mesh import Field, Grid2D, decompose
from repro.multigrid import Multigrid, MultigridPreconditioner, mgcg_solve
from repro.solvers import SolverOptions, StencilOperator2D, solve_linear
from repro.utils import ConfigurationError

from tests.helpers import (
    crooked_pipe_system,
    distributed_solve,
    random_spd_faces,
    reference_solution,
    serial_operator,
)

pytestmark = pytest.mark.distributed


def run_mgcg(g, kx, ky, bg, size, **kwargs):
    def rank_main(comm):
        tile = decompose(g, comm.size)[comm.rank]
        op = StencilOperator2D.from_global_faces(tile, 1, kx, ky, comm)
        b = Field.from_global(tile, 1, bg)
        return tile, mgcg_solve(op, b, **kwargs)

    out = launch_spmd(rank_main, size)
    x = np.zeros(g.shape)
    for tile, res in out:
        x[tile.global_slices] = res.x.interior
    return x, out[0][1]


class TestDistributedMGCG:
    @pytest.mark.parametrize("size", [1, 2, 4])
    def test_matches_reference(self, size):
        g, kx, ky, bg = crooked_pipe_system(64)
        x_ref = reference_solution(kx, ky, bg)
        x, result = run_mgcg(g, kx, ky, bg, size, eps=1e-11)
        assert result.converged
        assert np.abs(x - x_ref).max() <= 1e-8 * np.abs(x_ref).max()

    def test_iteration_count_decomposition_invariant(self):
        g, kx, ky, bg = crooked_pipe_system(64)
        iters = [run_mgcg(g, kx, ky, bg, size, eps=1e-10)[1].iterations
                 for size in (1, 2, 4)]
        assert max(iters) - min(iters) <= 2

    def test_matches_serial_baseline_quality(self):
        """The V-cycle converges about as fast on 4 ranks as on one."""
        g, kx, ky, bg = crooked_pipe_system(64)
        op = serial_operator(g, kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        serial = mgcg_solve(op, b, eps=1e-10)
        _, dist = run_mgcg(g, kx, ky, bg, 4, eps=1e-10)
        assert dist.iterations <= serial.iterations * 2

    def test_uneven_tiles_fall_back_to_agglomeration(self):
        """Odd local sizes: zero decomposed levels, still correct."""
        g, kx, ky, bg = crooked_pipe_system(30)  # 30 over 4 ranks: 15-wide
        x_ref = reference_solution(kx, ky, bg)
        x, result = run_mgcg(g, kx, ky, bg, 4, eps=1e-10)
        assert result.converged
        assert result.n_levels >= 1
        assert np.abs(x - x_ref).max() <= 1e-7 * np.abs(x_ref).max()

    def test_driver_routes_mgcg_by_comm_size(self):
        g, kx, ky, bg = crooked_pipe_system(32)
        x_ref = reference_solution(kx, ky, bg)
        options = SolverOptions(solver="mgcg", eps=1e-10)
        x, result = distributed_solve(g, kx, ky, bg, options, 4)
        assert result.converged
        assert np.abs(x - x_ref).max() <= 1e-7 * np.abs(x_ref).max()

    def test_level_counts_agree_across_ranks(self):
        g, kx, ky, bg = crooked_pipe_system(64)

        def rank_main(comm):
            tile = decompose(g, comm.size)[comm.rank]
            op = StencilOperator2D.from_global_faces(tile, 1, kx, ky, comm)
            return Multigrid(op).n_levels

        counts = launch_spmd(rank_main, 4)
        assert len(set(counts)) == 1

    def test_same_event_log_on_one_and_two_ranks(self):
        """One V-cycle on every world size: per iteration, rank 0 logs as
        many matvecs and halo exchanges on one rank as on two."""
        g, kx, ky, bg = crooked_pipe_system(64)
        options = SolverOptions(solver="mgcg", eps=1e-10)
        per_iteration = []
        for size in (1, 2):
            _, result = distributed_solve(g, kx, ky, bg, options, size)
            per_iteration.append(tuple(
                result.events.count(kind) / result.iterations
                for kind in ("matvec", "halo_exchange")))
        assert per_iteration[0] == per_iteration[1]


class TestHybridVCyclePreconditioner:
    def test_spd_on_serial_world(self, rng):
        n = 8
        kx, ky = random_spd_faces(rng, n, n)
        op = serial_operator(Grid2D(n, n), kx, ky)
        M = MultigridPreconditioner(op, min_size=2)
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

    def test_cycle_contracts_residual(self):
        g, kx, ky, bg = crooked_pipe_system(32)

        def rank_main(comm):
            tile = decompose(g, comm.size)[comm.rank]
            op = StencilOperator2D.from_global_faces(tile, 1, kx, ky, comm)
            b = Field.from_global(tile, 1, bg)
            mg = Multigrid(op)
            x = op.new_field()
            r = op.new_field()
            norms = []
            for _ in range(4):
                op.residual(b, x, out=r)
                norms.append(op.norm(r))
                x.interior += mg.cycle(r).interior
            return norms

        for norms in launch_spmd(rank_main, 4):
            assert norms[-1] < 0.05 * norms[0]

    def test_invalid_sweeps(self):
        g, kx, ky, bg = crooked_pipe_system(16)
        op = serial_operator(g, kx, ky)
        with pytest.raises(ConfigurationError):
            Multigrid(op, pre_sweeps=0)

    def test_invalid_omega_on_every_rank(self):
        """Damped Jacobi needs omega in (0, 1] on a decomposed world too."""
        g, kx, ky, bg = crooked_pipe_system(16)

        def rank_main(comm):
            tile = decompose(g, comm.size)[comm.rank]
            op = StencilOperator2D.from_global_faces(tile, 1, kx, ky, comm)
            with pytest.raises(ConfigurationError, match="omega"):
                Multigrid(op, omega=1.5)
            return True

        assert all(launch_spmd(rank_main, 2))


class TestWeakScalingModel:
    def test_weak_mesh_side(self):
        from repro.perfmodel.weak import weak_mesh_side
        assert weak_mesh_side(100, 1) == 100
        assert weak_mesh_side(100, 4) == 200
        assert weak_mesh_side(100, 16, ranks_per_node=4) == 800

    def test_weak_efficiency_decays_for_krylov(self):
        """The paper's §VI argument: weak scaling is ruined by iteration
        growth, not communication."""
        from repro.harness.common import iteration_model_for
        from repro.perfmodel import TITAN, SolverConfig
        from repro.perfmodel.weak import predict_weak_scaling, weak_efficiency

        config = SolverConfig("cg")
        pts = predict_weak_scaling(
            TITAN, config, local_side=500, node_counts=[1, 4, 16, 64],
            iteration_model=iteration_model_for(config))
        eff = weak_efficiency(pts)
        assert eff[0] == 1.0
        assert all(a > b for a, b in zip(eff, eff[1:]))
        # ~sqrt(P) time growth: efficiency near 1/sqrt(P) at 64 nodes
        assert 0.05 < eff[-1] < 0.35
