"""Tests: 3D rank-local coefficients and the 3D stepping driver."""

import numpy as np
import pytest

from repro.comm import SerialComm
from repro.mesh import Field, Grid3D, HaloExchanger, decompose
from repro.mesh.halo import reflect_boundaries
from repro.physics import (crooked_duct_3d, face_coefficients,
                           run_simulation)
from repro.physics.conduction import cell_conductivity
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
        """Rank-local K build == global face_coefficients, all ranks."""
        g = Grid3D(12, 12, 12)
        density, _ = crooked_duct_3d().paint(g)
        check_coefficient_fields(
            g, density, (0.9, 0.8, 0.7),
            face_coefficients(cell_conductivity(density), 0.9, 0.8, 0.7),
            sizes=(1, 4, 8))

    def test_bad_mean(self):
        g = Grid3D(4, 4, 4)
        density_g, energy_g = crooked_duct_3d().paint(g)
        tile = decompose(g, 1)[0]
        fields = build_fields(tile, 1, density_g, energy_g)
        ex = HaloExchanger(SerialComm())
        with pytest.raises(ConfigurationError):
            build_coefficient_fields(fields["density"], 1, 1, 1, ex,
                                     mean="median")
        with pytest.raises(ConfigurationError):   # one ratio per axis
            build_coefficient_fields(fields["density"], 1, 1, ex)


def duct_temperature(n=12, n_steps=2, nranks=1, **options):
    """The one stepping driver on the ``n``^3 crooked duct: the global
    temperature after ``n_steps``."""
    return run_simulation(Grid3D(n, n, n), crooked_duct_3d(),
                          SolverOptions(**options), n_steps=n_steps,
                          nranks=nranks).temperature


class TestDistributedSimulation3D:
    @pytest.fixture(scope="class")
    def serial_ref(self):
        return duct_temperature(eps=1e-11)

    @pytest.mark.parametrize("nranks", [1, 2, 4, 8])
    def test_cg_matches_serial(self, serial_ref, nranks):
        out = duct_temperature(nranks=nranks, eps=1e-11, solver="cg")
        assert np.abs(out - serial_ref).max() < 1e-10

    def test_ppcg_with_matrix_powers(self, serial_ref):
        out = duct_temperature(nranks=8, eps=1e-11, solver="ppcg",
                               halo_depth=2, ppcg_inner_steps=8)
        assert np.abs(out - serial_ref).max() < 1e-10

    def test_energy_conserved(self):
        density_g, energy_g = crooked_duct_3d().paint(Grid3D(10, 10, 10))
        out = duct_temperature(10, n_steps=3, nranks=4, eps=1e-12)
        assert out.sum() == pytest.approx((density_g * energy_g).sum(),
                                          rel=1e-9)

    def test_unknown_solver_rejected(self):
        """Every solver ``solve_linear`` knows runs, unless it is 2D by
        construction; those and unknown names are configuration errors."""
        for solver in ("mgcg", "dcg", "sor"):
            with pytest.raises(ConfigurationError):
                duct_temperature(8, n_steps=1, solver=solver)

    def test_options_reach_the_3d_driver(self, serial_ref):
        """``SolverOptions`` drive the 3D stepping: float32 working
        precision with refinement, a guard and the fused backend, on two
        ranks, agree with the plain serial run."""
        out = duct_temperature(nranks=2, solver="cg", eps=1e-11,
                               dtype="float32", refine=True,
                               guard_interval=5, kernel_backend="fused")
        assert np.abs(out - serial_ref).max() < 1e-9
