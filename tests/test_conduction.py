"""Unit tests: conduction coefficients."""

import numpy as np
import pytest

from repro.physics import (
    Conductivity,
    cell_conductivity,
    face_coefficients,
)
from repro.utils import ConfigurationError


class TestCellConductivity:
    def test_density_model(self):
        rho = np.array([[2.0, 4.0]])
        assert np.array_equal(cell_conductivity(rho, Conductivity.DENSITY), rho)

    def test_recip_model(self):
        rho = np.array([[2.0, 4.0]])
        out = cell_conductivity(rho, Conductivity.RECIP_DENSITY)
        assert np.allclose(out, [[0.5, 0.25]])

    def test_string_model_names(self):
        rho = np.ones((2, 2))
        assert np.all(cell_conductivity(rho, "conductivity") == 1.0)
        assert np.all(cell_conductivity(rho, "recip_conductivity") == 1.0)

    def test_default_is_recip(self):
        rho = np.full((2, 2), 4.0)
        assert np.all(cell_conductivity(rho) == 0.25)

    def test_nonpositive_density_rejected(self):
        with pytest.raises(ValueError):
            cell_conductivity(np.array([[1.0, 0.0]]))

    def test_returns_copy(self):
        rho = np.ones((2, 2))
        out = cell_conductivity(rho, Conductivity.DENSITY)
        out[0, 0] = 9
        assert rho[0, 0] == 1.0


def check_shapes_and_zero_boundaries(shape):
    """One array per axis (x first), one face longer along it, with zero
    first and last faces — in 2-D and 3-D."""
    faces = face_coefficients(np.ones(shape), *range(2, 2 + len(shape)))
    assert len(faces) == len(shape)
    for axis, k in zip(reversed(range(len(shape))), faces):
        assert k.shape == tuple(n + (a == axis) for a, n in enumerate(shape))
        across = np.moveaxis(k, axis, 0)
        assert np.all(across[0] == 0) and np.all(across[-1] == 0)
        assert np.all(across[1:-1] > 0)


class TestFaceCoefficients:
    def test_shapes_and_zero_boundaries(self):
        check_shapes_and_zero_boundaries((3, 5))

    def test_uniform_medium_values(self):
        kappa = np.full((4, 4), 2.0)
        kx, ky = face_coefficients(kappa, 0.5, 0.25)
        assert np.allclose(kx[:, 1:-1], 1.0)   # 0.5 * harmonic(2,2)=2
        assert np.allclose(ky[1:-1, :], 0.5)

    def test_harmonic_vs_arithmetic(self):
        kappa = np.array([[1.0, 4.0]])
        kxa, _ = face_coefficients(kappa, 1.0, 1.0, mean="arithmetic")
        kxh, _ = face_coefficients(kappa, 1.0, 1.0, mean="harmonic")
        assert kxa[0, 1] == pytest.approx(2.5)
        assert kxh[0, 1] == pytest.approx(1.6)  # 2*1*4/5
        assert kxh[0, 1] < kxa[0, 1]  # harmonic <= arithmetic

    def test_invalid_mean(self):
        with pytest.raises(ConfigurationError):
            face_coefficients(np.ones((2, 2)), 1.0, 1.0, mean="geometric")

    def test_invalid_r(self):
        with pytest.raises(ConfigurationError):
            face_coefficients(np.ones((2, 2)), 0.0, 1.0)
        with pytest.raises(ConfigurationError):   # one ratio per axis
            face_coefficients(np.ones((2, 2)), 1.0, 1.0, 1.0)

    def test_positive_everywhere_interior(self):
        rng = np.random.default_rng(0)
        kappa = rng.uniform(0.1, 10.0, (6, 6))
        kx, ky = face_coefficients(kappa, 1.0, 1.0)
        assert np.all(kx[:, 1:-1] > 0)
        assert np.all(ky[1:-1, :] > 0)


class TestFaceCoefficients3D:
    def test_shapes(self):
        check_shapes_and_zero_boundaries((2, 3, 4))

    def test_zero_boundary_faces(self):
        check_shapes_and_zero_boundaries((3, 3, 3))

    def test_uniform_values_scaled(self):
        kappa = np.full((3, 3, 3), 3.0)
        kx, _, kz = face_coefficients(kappa, 2.0, 1.0, 0.5)
        assert np.allclose(kx[:, :, 1:-1], 6.0)
        assert np.allclose(kz[1:-1], 1.5)
