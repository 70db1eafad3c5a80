"""White-box tests of predictor internals and remaining edge cases."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.comm import launch_spmd
from repro.mesh import Grid2D, decompose
from repro.perfmodel import TITAN, SPRUCE, SolverConfig
from repro.perfmodel.predict import (
    _Coster,
    _ext_cells,
    _neighbor_intra,
    _representative_tile,
    predict_solve_time,
)
from repro.solvers import StencilOperator2D, cg_solve
from repro.utils import ConvergenceError

from tests.helpers import (check_factors_optimal, crooked_pipe_system,
                           serial_operator)

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestPredictorInternals:
    def test_representative_tile_is_interior(self):
        g = Grid2D(4000, 4000)
        tile = _representative_tile(g, 64)
        assert tile.n_neighbors == 4  # interior: max communication load

    def test_representative_tile_small_worlds(self):
        g = Grid2D(100, 100)
        t1 = _representative_tile(g, 1)
        assert t1.n_neighbors == 0
        t2 = _representative_tile(g, 2)
        assert t2.n_neighbors == 1

    def test_ext_cells_formula(self):
        g = Grid2D(64, 64)
        tile = decompose(g, 16, factors=(4, 4))[5]  # interior tile
        assert _ext_cells(tile, 0) == tile.n_cells
        assert _ext_cells(tile, 2) == (tile.ny + 4) * (tile.nx + 4)
        corner = decompose(g, 16, factors=(4, 4))[0]
        assert _ext_cells(corner, 2) == (corner.ny + 2) * (corner.nx + 2)

    def test_neighbor_intra_classification(self):
        # 4x4 rank grid, 4 ranks per node: row-major rank -> node mapping
        g = Grid2D(64, 64)
        tile = decompose(g, 16, factors=(4, 4))[5]  # rank 5: cx=1, cy=1
        intra = _neighbor_intra(tile, ranks_per_node=4)
        # left neighbour is rank 4 (same node 1), right is 6 (node 1)
        assert intra["left"] and intra["right"]
        # up/down neighbours are ranks 1 and 9 (nodes 0 and 2)
        assert not intra["up"] and not intra["down"]

    def test_gpu_one_rank_per_node_all_inter(self):
        g = Grid2D(4000, 4000)
        tile = _representative_tile(g, 64)
        intra = _neighbor_intra(tile, ranks_per_node=1)
        assert not any(intra.values())

    def test_coster_halo_grows_with_depth_and_fields(self):
        g = Grid2D(4000, 4000)
        tile = _representative_tile(g, 64)
        c = _Coster(TITAN, tile, nodes=64, ranks=64, ranks_per_node=1)
        t1 = c.halo(1, 1)
        t8 = c.halo(8, 1)
        t8x2 = c.halo(8, 2)
        assert t1 < t8 < t8x2

    def test_predicted_time_str(self):
        p = predict_solve_time(TITAN, SolverConfig("cg"), 4000, 64,
                               outer_iters=100.0)
        assert "Titan" in str(p) and "nodes=64" in str(p)

    def test_ranks_per_node_default_from_machine(self):
        p = predict_solve_time(SPRUCE, SolverConfig("cg"), 4000, 4,
                               outer_iters=100.0)
        assert p.ranks == 8  # Spruce default: 2 ranks/node


class TestFailureInjection:
    def test_cg_breakdown_on_indefinite_operator(self):
        """Negative face coefficients make A indefinite: loud breakdown."""
        n = 8
        kx = np.zeros((n, n + 1))
        ky = np.zeros((n + 1, n))
        kx[:, 1:n] = -2.0  # destroys diagonal dominance and SPD-ness
        op = serial_operator(Grid2D(n, n), kx, ky)
        from repro.mesh import Field
        rng = np.random.default_rng(1)
        b = Field.from_global(op.tile, 1, rng.standard_normal((n, n)))
        with pytest.raises(ConvergenceError, match="breakdown"):
            cg_solve(op, b, eps=1e-10)

    def test_spmd_multiple_failures_report_lowest_rank(self):
        def rank_main(comm):
            raise ValueError(f"boom-{comm.rank}")

        with pytest.raises(ValueError, match=r"\[rank 0\] boom-0"):
            launch_spmd(rank_main, 3)

    def test_simulation_distributed_failure_propagates(self):
        from repro.physics import crooked_pipe, run_simulation
        from repro.solvers import SolverOptions
        with pytest.raises(ConvergenceError):
            run_simulation(Grid2D(32, 32), crooked_pipe(),
                           SolverOptions(solver="cg", eps=1e-13, max_iters=2),
                           n_steps=1, nranks=4)


class TestCommProperties:
    @given(size=st.integers(2, 6), seed=st.integers(0, 2 ** 31 - 1),
           op=st.sampled_from(["sum", "max", "min", "prod"]))
    @settings(max_examples=15, **COMMON)
    def test_allreduce_agrees_with_numpy(self, size, seed, op):
        rng = np.random.default_rng(seed)
        values = rng.uniform(0.5, 2.0, size)

        def rank_main(comm):
            return comm.allreduce(float(values[comm.rank]), op=op)

        out = launch_spmd(rank_main, size)
        expect = {"sum": np.sum, "max": np.max, "min": np.min,
                  "prod": np.prod}[op](values)
        for v in out:
            assert v == pytest.approx(expect, rel=1e-12)

    @given(size=st.integers(2, 5), rounds=st.integers(1, 8))
    @settings(max_examples=10, **COMMON)
    def test_interleaved_p2p_and_collectives(self, size, rounds):
        def rank_main(comm):
            acc = 0.0
            for i in range(rounds):
                peer = (comm.rank + 1) % comm.size
                src = (comm.rank - 1) % comm.size
                if peer != comm.rank:
                    comm.send(comm.rank + i, dest=peer, tag=i)
                    acc += comm.recv(source=src, tag=i)
                acc = comm.allreduce(acc)
            return acc

        out = launch_spmd(rank_main, size)
        assert len(set(out)) == 1  # all ranks agree

    @given(nranks=st.integers(1, 32), nx=st.integers(16, 128),
           ny=st.integers(16, 128), nz=st.integers(16, 128))
    @settings(max_examples=30, **COMMON)
    def test_choose_factors_3d_optimal(self, nranks, nx, ny, nz):
        check_factors_optimal(nranks, nx, ny, nz)


class TestMiscEdges:
    def test_summary_reports_unconverged(self):
        g, kx, ky, bg = crooked_pipe_system(16)
        op = serial_operator(g, kx, ky)
        from repro.mesh import Field
        b = Field.from_global(op.tile, 1, bg)
        result = cg_solve(op, b, eps=1e-13, max_iters=2)
        assert "NOT converged" in result.summary()

    def test_render_width_clamped_to_mesh(self):
        from repro.io import render_heatmap
        art = render_heatmap(np.ones((4, 4)) * 2.0, width=100)
        assert all(len(line) == 4 for line in art.splitlines())

    def test_deck_circle_missing_key(self):
        from repro.physics import parse_deck_text
        from repro.utils import ConfigurationError
        with pytest.raises(ConfigurationError):
            parse_deck_text(
                "*tea\nstate 1 density=1 energy=1\n"
                "state 2 density=1 energy=1 geometry=circle xcentre=1\n"
                "*endtea")

    def test_options_chebyshev_required_halo(self):
        from repro.solvers import SolverOptions
        assert SolverOptions(solver="chebyshev",
                             halo_depth=6).required_field_halo == 6
