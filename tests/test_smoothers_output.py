"""Tests: Chebyshev smoother, divergence guards, periodic output."""

import numpy as np
import pytest

from repro.comm import SerialComm, launch_spmd
from repro.mesh import Field, Grid2D
from repro.multigrid import Multigrid, mgcg_solve
from repro.physics import crooked_pipe
from repro.physics.simulation import Simulation
from repro.solvers import EigenBounds, SolverOptions, chebyshev_solve
from repro.utils import ConfigurationError, ConvergenceError

from tests.helpers import crooked_pipe_system, random_spd_faces, serial_operator


def residual_norm(lop, b, u):
    """``||b - A u||`` on a one-rank level."""
    w = lop.new_field()
    lop.apply(u, w)
    return np.linalg.norm(b.interior - w.interior)


class TestChebyshevSmoother:
    def test_reduces_residual(self, rng):
        kx, ky = random_spd_faces(rng, 16, 16)
        mg = Multigrid(serial_operator(Grid2D(16, 16), kx, ky),
                       smoother="chebyshev")
        level = mg.ops[0]
        b = Field.from_global(level.tile, 1, rng.standard_normal((16, 16)))
        u = level.new_field()
        r0 = np.linalg.norm(b.interior)
        mg.smooth(0, u, b, sweeps=4)
        r1 = residual_norm(level, b, u)
        assert r1 < r0

    def test_kills_high_frequencies_harder_than_jacobi(self, rng):
        """The smoother's job: damp oscillatory error fast."""
        n = 32
        kx, ky = random_spd_faces(rng, n, n, scale=3.0)
        op = serial_operator(Grid2D(n, n), kx, ky)
        # checkerboard = highest-frequency mode
        j, k = np.meshgrid(np.arange(n), np.arange(n))
        err0 = ((-1.0) ** (j + k))
        b = op.new_field()

        def remaining(smoother):
            mg = Multigrid(op, smoother=smoother)
            u = Field.from_global(op.tile, 1, -err0)  # error = -u, x = 0
            mg.smooth(0, u, b, sweeps=3)
            return np.linalg.norm(u.interior)

        cheb = remaining("chebyshev")
        jac = remaining("jacobi")
        assert cheb < jac

    def test_mgcg_with_chebyshev_smoother(self):
        g, kx, ky, bg = crooked_pipe_system(32)
        op = serial_operator(g, kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        result = mgcg_solve(op, b, eps=1e-10, smoother="chebyshev")
        assert result.converged
        # comparable iteration count to the Jacobi-smoothed cycle
        op2 = serial_operator(g, kx, ky)
        b2 = Field.from_global(op2.tile, 1, bg)
        jac = mgcg_solve(op2, b2, eps=1e-10, smoother="jacobi")
        assert result.iterations <= 2 * jac.iterations

    def test_invalid_smoother_name(self, rng):
        kx, ky = random_spd_faces(rng, 8, 8)
        with pytest.raises(ConfigurationError):
            Multigrid(serial_operator(Grid2D(8, 8), kx, ky), smoother="ilu")

    def test_invalid_fraction(self, rng):
        kx, ky = random_spd_faces(rng, 8, 8)
        with pytest.raises(ConfigurationError):
            Multigrid(serial_operator(Grid2D(8, 8), kx, ky),
                      smoother="chebyshev", smooth_fraction=0.5)


class TestDivergenceGuards:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_chebyshev_solver_raises_on_divergence(self):
        """lam_max grossly underestimated -> non-finite residual, loud error."""
        g, kx, ky, bg = crooked_pipe_system(32)
        op = serial_operator(g, kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        with pytest.raises(ConvergenceError, match="non-finite|diverged"):
            chebyshev_solve(op, b, eps=1e-10, warmup_iters=3,
                            bounds=EigenBounds(1.0, 1.2), max_iters=2000)


class TestPeriodicOutput:
    def test_summary_frequency_attaches_summaries(self):
        sim = Simulation(SerialComm(), Grid2D(16, 16), crooked_pipe(),
                         SolverOptions(solver="cg", eps=1e-10))
        stats = sim.run(4, summary_frequency=2)
        assert stats[0].summary is None
        assert stats[1].summary is not None
        assert stats[3].summary is not None
        assert stats[1].summary.mass == pytest.approx(stats[3].summary.mass)

    def test_visit_frequency_writes_vtk(self, tmp_path):
        from repro.io.vtk import read_vtk
        sim = Simulation(SerialComm(), Grid2D(16, 16), crooked_pipe(),
                         SolverOptions(solver="cg", eps=1e-10))
        sim.run(3, visit_frequency=2, output_dir=tmp_path)
        written = sorted(p.name for p in tmp_path.glob("tea.*.vtk"))
        assert written == ["tea.2.vtk"]
        shape, fields = read_vtk(tmp_path / "tea.2.vtk")
        assert shape == (16, 16)
        assert set(fields) == {"temperature", "density"}

    def test_visit_dump_distributed_only_rank0_writes(self, tmp_path):
        def rank_main(comm):
            sim = Simulation(comm, Grid2D(16, 16), crooked_pipe(),
                             SolverOptions(solver="cg", eps=1e-10))
            sim.run(2, visit_frequency=2, output_dir=tmp_path)
            return True

        assert all(launch_spmd(rank_main, 4))
        files = list(tmp_path.glob("tea.*.vtk"))
        assert len(files) == 1

    def test_deck_frequencies_parsed(self):
        from repro.physics import parse_deck_text
        deck = parse_deck_text(
            "*tea\nstate 1 density=1 energy=1\n"
            "summary_frequency=10\nvisit_frequency=5\n*endtea")
        assert deck.summary_frequency == 10
        assert deck.visit_frequency == 5
