"""Conduction coefficients for the implicit diffusion operator.

Per the paper (§II): "A conduction coefficient is calculated that is equal to
the cell centered density, which is then averaged to each face of the cell
for use in the solution."  TeaLeaf supports two cell coefficients —
``CONDUCTIVITY`` (kappa = rho) and ``RECIP_CONDUCTIVITY`` (kappa = 1/rho, used by the
crooked-pipe benchmark so that the dense material conducts poorly) — and the
face value is the harmonic-style mean of the two adjacent cells.

The operator coefficients of Listing 1 are then ``Kx = rx * kappa_face`` with
``rx = dt/dx^2`` (and ``ry = dt/dy^2``), and faces on the physical boundary are
zeroed, which imposes insulated (zero-flux) boundaries and makes the system
matrix ``A = I + D`` strictly diagonally dominant and SPD.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.utils.validation import check_in, check_positive, require


class Conductivity(str, enum.Enum):
    """Cell-centred conductivity model (TeaLeaf ``tl_coefficient``)."""

    DENSITY = "conductivity"          # kappa = rho
    RECIP_DENSITY = "recip_conductivity"  # kappa = 1/rho


def cell_conductivity(density: np.ndarray,
                      model: Conductivity | str = Conductivity.RECIP_DENSITY
                      ) -> np.ndarray:
    """Cell-centred conductivity ``kappa`` from density."""
    model = Conductivity(model)
    if np.any(density <= 0):
        raise ValueError("density must be strictly positive everywhere")
    if model is Conductivity.DENSITY:
        return np.asarray(density, dtype=np.float64).copy()
    return 1.0 / np.asarray(density, dtype=np.float64)


def _face_mean(a: np.ndarray, b: np.ndarray, mean: str) -> np.ndarray:
    """Average two adjacent-cell coefficient arrays onto their shared face."""
    check_in("mean", mean, ("arithmetic", "harmonic"))
    if mean == "arithmetic":
        return 0.5 * (a + b)
    return 2.0 * a * b / (a + b)


def face_coefficients(kappa: np.ndarray, *ratios: float,
                      mean: str = "harmonic") -> tuple[np.ndarray, ...]:
    """Face coefficient arrays ``(Kx, Ky[, Kz])`` from cell conductivity,
    called as ``face_coefficients(kappa, rx, ry[, rz])``.

    Parameters
    ----------
    kappa:
        Cell conductivity, shape ``(ny, nx)`` or ``(nz, ny, nx)``.
    ratios:
        The ``dt/dx^2``, ``dt/dy^2`` (and ``dt/dz^2``) scalings, one per
        axis.
    mean:
        ``"harmonic"`` (TeaLeaf's choice, exact for layered media) or
        ``"arithmetic"``.

    Returns
    -------
    One array per axis, one cell longer along it: in 2-D ``Kx`` is ``(ny,
    nx+1)`` and ``Kx[k, j]`` couples cells ``(k, j-1)`` and ``(k, j)``,
    ``Ky`` is ``(ny+1, nx)`` and ``Ky[k, j]`` couples ``(k-1, j)`` and
    ``(k, j)``; 3-D adds ``Kz`` of shape ``(nz+1, ny, nx)``.  The first and
    last face along each axis (the physical boundary) are zero.
    """
    kappa = np.asarray(kappa, dtype=np.float64)
    require(len(ratios) == kappa.ndim,
            f"a {kappa.ndim}-D conductivity takes {kappa.ndim} ratios "
            f"dt/dx^2, got {len(ratios)}")
    faces = []
    for name, axis, ratio in zip("xyz", reversed(range(kappa.ndim)), ratios):
        check_positive(f"r{name}", ratio)
        k = np.zeros([n + (a == axis) for a, n in enumerate(kappa.shape)])
        # Views with ``axis`` in front: face i lies between cells i - 1
        # and i along it.
        cells = np.moveaxis(kappa, axis, 0)
        np.moveaxis(k, axis, 0)[1:-1] = ratio * _face_mean(
            cells[:-1], cells[1:], mean)
        faces.append(k)
    return tuple(faces)
