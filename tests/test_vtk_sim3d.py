"""Tests: VTK output and the 3D simulation driver."""

import numpy as np
import pytest

from repro.comm import SerialComm
from repro.io.vtk import read_vtk, write_vtk
from repro.mesh import Grid2D, Grid3D
from repro.physics import (ProblemSpec, RegionSpec, Simulation,
                           crooked_duct_3d)
from repro.utils import ConfigurationError


def simulation_3d(n):
    """The one stepping driver on an ``n``^3 crooked duct, serially."""
    return Simulation(SerialComm(), Grid3D(n, n, n), crooked_duct_3d())


class TestVTK:
    def test_roundtrip_2d(self, tmp_path, rng):
        grid = Grid2D(8, 6)
        T = rng.standard_normal(grid.shape)
        rho = rng.uniform(0.1, 10.0, grid.shape)
        path = write_vtk(tmp_path / "out.vtk", grid,
                         {"temperature": T, "density": rho})
        shape, fields = read_vtk(path)
        assert shape == (6, 8)
        assert np.allclose(fields["temperature"], T)
        assert np.allclose(fields["density"], rho)

    def test_roundtrip_3d(self, tmp_path, rng):
        grid = Grid3D(4, 3, 5)
        T = rng.standard_normal(grid.shape)
        path = write_vtk(tmp_path / "out3d.vtk", grid, {"temperature": T})
        shape, fields = read_vtk(path)
        assert shape == (5, 3, 4)
        assert np.allclose(fields["temperature"], T)

    def test_header_contents(self, tmp_path):
        grid = Grid2D(4, 4)
        path = write_vtk(tmp_path / "h.vtk", grid,
                         {"u": np.zeros(grid.shape)}, title="mytitle")
        text = path.read_text()
        assert text.startswith("# vtk DataFile Version 3.0")
        assert "mytitle" in text
        assert "DATASET RECTILINEAR_GRID" in text
        assert "DIMENSIONS 5 5 2" in text
        assert "CELL_DATA 16" in text

    def test_coordinates_match_extent(self, tmp_path):
        grid = Grid2D(4, 2, extent=(0.0, 2.0, 0.0, 1.0))
        path = write_vtk(tmp_path / "c.vtk", grid,
                         {"u": np.zeros(grid.shape)})
        text = path.read_text()
        assert "X_COORDINATES 5 double" in text
        assert "0 0.5 1 1.5 2" in text

    def test_validation(self, tmp_path):
        grid = Grid2D(4, 4)
        with pytest.raises(ConfigurationError):
            write_vtk(tmp_path / "x.vtk", grid, {})
        with pytest.raises(ConfigurationError):
            write_vtk(tmp_path / "x.vtk", grid, {"u": np.zeros((2, 2))})
        with pytest.raises(ConfigurationError):
            write_vtk(tmp_path / "x.vtk", grid,
                      {"bad name": np.zeros(grid.shape)})


class TestSimulation3D:
    @pytest.fixture(scope="class")
    def sim(self):
        sim = simulation_3d(12)
        sim.run(3)
        return sim

    def test_energy_conserved(self, sim):
        assert sim.mean_temperature() == pytest.approx(
            simulation_3d(12).mean_temperature(), rel=1e-9)

    def test_heat_follows_duct(self, sim):
        """The low-density duct conducts; the dense block barely does."""
        duct = sim.fields["density"].interior < 1.0
        u = sim.u.interior
        assert u[duct].mean() > 3 * u[~duct].mean()

    def test_max_temperature_decays(self):
        sim = simulation_3d(10)
        before = sim.summary()
        assert before.volume == pytest.approx(10.0 ** 3)   # dx * dy * dz
        after = sim.run(2, summary_frequency=2)[-1].summary
        assert after.max_temperature < before.max_temperature
        assert after.internal_energy == pytest.approx(
            before.internal_energy, rel=1e-9)

    def test_step_stats(self):
        stats = simulation_3d(8).step()
        assert stats.step == 1
        assert stats.time == pytest.approx(0.04)
        assert stats.iterations > 0

    def test_background_required_first(self):
        with pytest.raises(ConfigurationError):
            ProblemSpec(regions=(
                RegionSpec(1.0, 1.0, "rectangle", (0, 1, 0, 1, 0, 1)),))

    def test_vtk_export_of_3d_state(self, tmp_path, sim):
        """The driver's own dump (``visit_frequency``) of a 3-D state."""
        sim.run(1, visit_frequency=1, output_dir=tmp_path)
        shape, fields = read_vtk(tmp_path / f"tea.{sim.step_index}.vtk")
        assert shape == sim.grid.shape
        assert np.allclose(fields["temperature"], sim.u.interior)
        assert np.allclose(fields["density"],
                           sim.fields["density"].interior)
