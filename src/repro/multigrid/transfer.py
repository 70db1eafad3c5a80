"""Inter-grid transfer operators.

Piecewise-constant prolongation (each coarse cell value is injected into
its four children) paired with 4-cell averaging restriction — the
transpose pair matching the Galerkin coarsening in
:mod:`repro.multigrid.mgcg`, which keeps the V-cycle a symmetric
operator (required for use as a PCG preconditioner).
"""

from __future__ import annotations

import numpy as np

from repro.utils.errors import ConfigurationError


def restrict_full_weighting(fine: np.ndarray) -> np.ndarray:
    """Average each 2x2 fine block onto its coarse parent cell."""
    ny, nx = fine.shape
    if ny % 2 or nx % 2:
        raise ConfigurationError(f"cannot restrict odd-sized array {fine.shape}")
    return 0.25 * (fine[0::2, 0::2] + fine[1::2, 0::2]
                   + fine[0::2, 1::2] + fine[1::2, 1::2])


def prolong_constant(coarse: np.ndarray, out: np.ndarray | None = None
                     ) -> np.ndarray:
    """Inject each coarse value into its four fine children."""
    ny, nx = coarse.shape
    if out is None:
        out = np.empty((2 * ny, 2 * nx), dtype=coarse.dtype)
    out[0::2, 0::2] = coarse
    out[1::2, 0::2] = coarse
    out[0::2, 1::2] = coarse
    out[1::2, 1::2] = coarse
    return out
