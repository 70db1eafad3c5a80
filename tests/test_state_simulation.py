"""Integration: state construction and the time-stepping driver."""

import numpy as np
import pytest

from repro.comm import SerialComm
from repro.mesh import Grid2D, HaloExchanger, decompose
from repro.physics import (
    Conductivity,
    Simulation,
    crooked_pipe,
    global_initial_state,
    hot_square,
    run_simulation,
    uniform_problem,
)
from repro.physics.state import build_coefficient_fields, build_fields
from repro.solvers import SolverOptions
from repro.utils import ConvergenceError

from tests.helpers import check_coefficient_fields


class TestGlobalInitialState:
    def test_u_is_density_times_energy(self):
        g = Grid2D(32, 32)
        density, energy, u = global_initial_state(g, crooked_pipe())
        assert np.allclose(u, density * energy)

    def test_shapes(self):
        g = Grid2D(16, 8)
        density, energy, u = global_initial_state(g, uniform_problem())
        assert density.shape == (8, 16)


class TestBuildFields:
    def test_rank_slices(self):
        g = Grid2D(16, 16)
        density, energy, u = global_initial_state(g, hot_square())
        tile = decompose(g, 4)[1]
        fields = build_fields(tile, 2, density, energy)
        assert np.array_equal(fields["density"].interior,
                              density[tile.global_slices])
        assert np.allclose(fields["u"].interior,
                           (density * energy)[tile.global_slices])


class TestCoefficientFields:
    def test_matches_global_face_coefficients(self):
        """Rank-local K construction == global construction, all ranks."""
        from repro.physics import cell_conductivity, face_coefficients

        g = Grid2D(24, 24)
        density, _, _ = global_initial_state(g, crooked_pipe())
        check_coefficient_fields(
            g, density, (0.9, 0.9),
            face_coefficients(cell_conductivity(density), 0.9, 0.9),
            sizes=(1, 4, 6))

    def test_arithmetic_mean_option(self):
        g = Grid2D(8, 8)
        density, energy, _ = global_initial_state(g, uniform_problem(2.0))
        tile = decompose(g, 1)[0]
        fields = build_fields(tile, 1, density, energy)
        ex = HaloExchanger(SerialComm())
        kx, ky = build_coefficient_fields(fields["density"], 1.0, 1.0, ex,
                                          model=Conductivity.DENSITY,
                                          mean="arithmetic")
        h = kx.halo
        assert np.allclose(kx.data[h:h + 8, h + 1:h + 8], 2.0)

    def test_bad_mean_rejected(self):
        g = Grid2D(4, 4)
        density, energy, _ = global_initial_state(g, uniform_problem())
        tile = decompose(g, 1)[0]
        fields = build_fields(tile, 1, density, energy)
        with pytest.raises(ValueError):
            build_coefficient_fields(fields["density"], 1.0, 1.0,
                                     HaloExchanger(SerialComm()),
                                     mean="quadratic")


class TestSimulation:
    def test_heat_conservation(self):
        """Insulated domain: the mean temperature is invariant."""
        report = run_simulation(Grid2D(24, 24), crooked_pipe(),
                                SolverOptions(solver="cg", eps=1e-12),
                                n_steps=4)
        means = [s.mean_temperature for s in report.steps]
        assert np.allclose(means, means[0], rtol=1e-9)

    def test_heat_spreads(self):
        """Maximum temperature decreases as heat diffuses."""
        report = run_simulation(Grid2D(24, 24), hot_square(),
                                SolverOptions(solver="cg", eps=1e-11),
                                dt=0.5, n_steps=3)
        assert report.temperature.max() < 10.0  # initial hot square at 10
        assert report.temperature.min() > 0.0

    def test_distributed_equals_serial_over_steps(self):
        opts = SolverOptions(solver="ppcg", eps=1e-12, ppcg_inner_steps=8,
                             halo_depth=2)
        r1 = run_simulation(Grid2D(24, 24), crooked_pipe(), opts, n_steps=3,
                            nranks=1)
        r4 = run_simulation(Grid2D(24, 24), crooked_pipe(), opts, n_steps=3,
                            nranks=4)
        assert np.abs(r1.temperature - r4.temperature).max() < 1e-9

    def test_report_contents(self):
        report = run_simulation(Grid2D(16, 16), crooked_pipe(),
                                SolverOptions(solver="cg", eps=1e-10),
                                n_steps=2)
        assert report.n_steps == 2
        assert report.steps[0].step == 1
        assert report.steps[1].time == pytest.approx(0.08)
        assert report.total_iterations > 0
        assert report.temperature.shape == (16, 16)
        assert report.events.count_kind("halo_exchange") > 0
        assert report.events.count_kind("allreduce") > 0

    def test_gather_temperature_optional(self):
        report = run_simulation(Grid2D(8, 8), crooked_pipe(),
                                SolverOptions(solver="cg", eps=1e-8),
                                n_steps=1, gather_temperature=False)
        assert report.temperature is None

    def test_nonconvergence_raises(self):
        with pytest.raises(ConvergenceError):
            run_simulation(Grid2D(32, 32), crooked_pipe(),
                           SolverOptions(solver="cg", eps=1e-12, max_iters=2),
                           n_steps=1)

    def test_simulation_object_api(self):
        sim = Simulation(SerialComm(), Grid2D(16, 16), crooked_pipe(),
                         SolverOptions(solver="cg", eps=1e-10))
        s1 = sim.step()
        assert s1.step == 1 and sim.time == pytest.approx(0.04)
        stats = sim.run(2)
        assert sim.step_index == 3
        assert stats[-1].step == 3
        temp = sim.gather_temperature()
        assert temp.shape == (16, 16)
        assert sim.mean_temperature() == pytest.approx(temp.mean())

    def test_cold_start_option(self):
        r = run_simulation(Grid2D(16, 16), crooked_pipe(),
                           SolverOptions(solver="cg", eps=1e-10),
                           n_steps=1, warm_start=False)
        assert r.steps[0].converged
