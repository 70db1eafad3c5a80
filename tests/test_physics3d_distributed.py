"""Tests: 3D rank-local coefficients and the 3D stepping driver."""

import numpy as np
import pytest

from repro.comm import SerialComm
from repro.mesh import Field, Grid3D, HaloExchanger, decompose
from repro.mesh.halo import reflect_boundaries
from repro.physics import face_coefficients_3d
from repro.physics.conduction import cell_conductivity
from repro.physics.simulation3d import (
    Simulation3D,
    crooked_duct_3d,
    paint_boxes,
    run_simulation_3d_distributed,
)
from repro.physics.state import build_coefficient_fields, build_fields
from repro.solvers import SolverOptions
from repro.utils import CommunicationError, ConfigurationError

from tests.helpers import check_coefficient_fields

pytestmark = pytest.mark.distributed


class TestReflect3D:
    def test_serial_mirrors_all_faces(self):
        glob = np.random.default_rng(0).standard_normal((4, 4, 4))
        f = Field.from_global(decompose(Grid3D(4, 4, 4), 1)[0], 2, glob)
        reflect_boundaries(f)
        h = f.halo
        inner = slice(h, h + 4)
        for axis in range(3):
            at = [inner] * 3
            for ghost, cell in ((h - 1, 0), (h + 4, -1)):
                at[axis] = ghost
                assert np.array_equal(f.data[tuple(at)],
                                      np.take(glob, cell, axis))

    def test_depth_guard(self):
        t = decompose(Grid3D(4, 4, 4), 1)[0]
        with pytest.raises(CommunicationError):
            reflect_boundaries(Field(t, 1), depth=2)


class TestCoefficients3D:
    def test_matches_global_construction(self):
        """Rank-local K build == global face_coefficients_3d, all ranks."""
        g = Grid3D(12, 12, 12)
        density, _ = paint_boxes(g, crooked_duct_3d())
        check_coefficient_fields(
            g, density, (0.9, 0.8, 0.7),
            face_coefficients_3d(cell_conductivity(density), 0.9, 0.8, 0.7),
            sizes=(1, 4, 8))

    def test_bad_mean(self):
        g = Grid3D(4, 4, 4)
        density_g, energy_g = paint_boxes(g, crooked_duct_3d())
        tile = decompose(g, 1)[0]
        fields = build_fields(tile, 1, density_g, energy_g)
        ex = HaloExchanger(SerialComm())
        with pytest.raises(ConfigurationError):
            build_coefficient_fields(fields["density"], 1, 1, 1, ex,
                                     mean="median")
        with pytest.raises(ConfigurationError):   # one ratio per axis
            build_coefficient_fields(fields["density"], 1, 1, ex)


class TestDistributedSimulation3D:
    @pytest.fixture(scope="class")
    def serial_ref(self):
        sim = Simulation3D(Grid3D(12, 12, 12), crooked_duct_3d(),
                           dt=0.04, eps=1e-11)
        sim.run(2)
        return sim.u

    @pytest.mark.parametrize("nranks", [1, 2, 4, 8])
    def test_cg_matches_serial(self, serial_ref, nranks):
        out = run_simulation_3d_distributed(
            Grid3D(12, 12, 12), crooked_duct_3d(), n_steps=2,
            nranks=nranks, eps=1e-11, solver="cg")
        assert np.abs(out["temperature"] - serial_ref).max() < 1e-10

    def test_ppcg_with_matrix_powers(self, serial_ref):
        out = run_simulation_3d_distributed(
            Grid3D(12, 12, 12), crooked_duct_3d(), n_steps=2,
            nranks=8, eps=1e-11, solver="ppcg", halo_depth=2,
            inner_steps=8)
        assert np.abs(out["temperature"] - serial_ref).max() < 1e-10

    def test_energy_conserved(self):
        g = Grid3D(10, 10, 10)
        density_g, energy_g = paint_boxes(g, crooked_duct_3d())
        u0 = density_g * energy_g
        out = run_simulation_3d_distributed(
            g, crooked_duct_3d(), n_steps=3, nranks=4, eps=1e-12)
        assert out["temperature"].sum() == pytest.approx(u0.sum(), rel=1e-9)

    def test_unknown_solver_rejected(self):
        """Every solver ``solve_linear`` knows runs, unless it is 2D by
        construction; those and unknown names are configuration errors."""
        for solver in ("mgcg", "dcg", "sor"):
            with pytest.raises(ConfigurationError):
                run_simulation_3d_distributed(
                    Grid3D(8, 8, 8), crooked_duct_3d(), solver=solver)

    def test_options_reach_the_3d_driver(self, serial_ref):
        """``SolverOptions`` drive the 3D stepping: float32 working
        precision with refinement, a guard and the fused backend, on two
        ranks, agree with the plain serial run."""
        sim = Simulation3D(
            Grid3D(12, 12, 12), crooked_duct_3d(), nranks=2,
            options=SolverOptions(solver="cg", eps=1e-11, dtype="float32",
                                  refine=True, guard_interval=5,
                                  kernel_backend="fused"))
        sim.run(2)
        assert np.abs(sim.u - serial_ref).max() < 1e-9
