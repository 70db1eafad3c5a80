"""Eigenvalue estimation and the paper's iteration-count bounds.

CPPCG needs a-priori estimates of the extreme eigenvalues of the (possibly
preconditioned) operator.  Following the paper (§III-D), these come from a
few warm-up iterations of plain (P)CG: the CG coefficients ``alpha_i``
(step lengths) and ``beta_i`` define the Lanczos tridiagonal matrix whose
extreme eigenvalues (Ritz values) converge to the extreme eigenvalues of
the system from the inside.

This module also implements the bounds of §III-C (Eqs. 4-7): the effective
PCG condition number under an ``m``-step Chebyshev preconditioner and the
resulting total/outer iteration counts — the analytic engine behind the
"ratio of outer to inner iterations" claim that motivates CPPCG.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from repro.utils.errors import ConfigurationError

#: Safety factors ``(lo, hi)`` widening the Ritz interval of a warm-up
#: estimate — TeaLeaf's, shared by the Chebyshev and CPPCG solvers.
EIGEN_SAFETY = (0.95, 1.05)


@dataclass(frozen=True)
class EigenBounds:
    """Estimated extreme eigenvalues (after safety factors)."""

    lam_min: float
    lam_max: float

    def __post_init__(self):
        if not (0 < self.lam_min <= self.lam_max):
            raise ConfigurationError(
                f"invalid eigenvalue bounds [{self.lam_min}, {self.lam_max}]")

    @property
    def condition_number(self) -> float:
        return self.lam_max / self.lam_min

    @property
    def theta(self) -> float:
        """Chebyshev ellipse centre ``(lam_max + lam_min)/2``."""
        return 0.5 * (self.lam_max + self.lam_min)

    @property
    def delta(self) -> float:
        """Chebyshev ellipse half-width ``(lam_max - lam_min)/2``."""
        return 0.5 * (self.lam_max - self.lam_min)


def lanczos_tridiagonal(alphas: np.ndarray, betas: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Build the Lanczos tridiagonal from CG coefficients.

    With CG step lengths ``alpha_i`` and direction updates ``beta_i``
    (``i = 0..k-1``), the tridiagonal ``T_k`` similar to the projection of
    the operator onto the Krylov space has

        diag[i]    = 1/alpha_i + beta_{i-1}/alpha_{i-1}   (beta_{-1} = 0)
        offdiag[i] = sqrt(beta_i) / alpha_i

    Returns ``(diag, offdiag)`` with ``len(offdiag) == len(diag) - 1``.
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    betas = np.asarray(betas, dtype=np.float64)
    k = len(alphas)
    if k < 1:
        raise ConfigurationError("need at least one CG iteration for Lanczos")
    if len(betas) < k - 1:
        raise ConfigurationError(
            f"need at least {k - 1} betas for {k} alphas, got {len(betas)}")
    if np.any(alphas <= 0) or np.any(betas[:k - 1] < 0):
        raise ConfigurationError(
            "CG coefficients imply a non-SPD system (alpha<=0 or beta<0)")
    diag = 1.0 / alphas
    diag[1:] += betas[:k - 1] / alphas[:k - 1]
    offdiag = np.sqrt(betas[:k - 1]) / alphas[:k - 1]
    return diag, offdiag


def estimate_eigenvalues(
    alphas,
    betas,
    safety: tuple[float, float] = EIGEN_SAFETY,
) -> EigenBounds:
    """Extreme-eigenvalue estimates from CG coefficients.

    Ritz values under-estimate ``lam_max`` and over-estimate ``lam_min``, so a
    safety factor widens the interval (TeaLeaf does the same); Chebyshev
    preconditioning diverges if the true spectrum escapes ``[lam_min, lam_max]``
    above, and merely degrades gracefully below.
    """
    lo_safety, hi_safety = safety
    if not (0 < lo_safety <= 1.0 and hi_safety >= 1.0):
        raise ConfigurationError(
            f"safety factors must satisfy 0 < lo <= 1 <= hi, got {safety}")
    diag, offdiag = lanczos_tridiagonal(alphas, betas)
    if len(diag) == 1:
        ritz = diag
    else:
        ritz = eigvalsh_tridiagonal(diag, offdiag)
    lam_min = float(ritz[0]) * lo_safety
    lam_max = float(ritz[-1]) * hi_safety
    return EigenBounds(lam_min=lam_min, lam_max=lam_max)


def condition_estimate(alphas, betas, default: float = 1.0) -> float:
    """Condition-number estimate ``lam_max/lam_min`` from CG coefficients.

    Safety-free Ritz estimate (``safety=(1, 1)``): the Lanczos view of the
    spectrum as CG itself saw it, used by :mod:`repro.numerics` to size
    residual-replacement intervals and judge float32 feasibility.  Returns
    ``default`` when the coefficients are absent, non-SPD-looking or
    numerically unusable — condition-aware safeguards degrade to their
    fixed-cadence behaviour rather than fail.
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    if alphas.size == 0 or not np.all(np.isfinite(alphas)):
        return default
    try:
        bounds = estimate_eigenvalues(alphas, betas, safety=(1.0, 1.0))
    except (ConfigurationError, np.linalg.LinAlgError):
        return default
    kappa = bounds.condition_number
    if not np.isfinite(kappa) or kappa < 1.0:
        return default
    return float(kappa)


def _cheb_T(m: int, x: float) -> float:
    """Chebyshev polynomial of the first kind at ``|x| >= 1`` (stable form)."""
    ax = abs(x)
    if ax < 1.0:
        return float(np.cos(m * np.arccos(x)))
    t = float(np.cosh(m * np.arccosh(ax)))
    return t if (x > 0 or m % 2 == 0) else -t


def chebyshev_epsilon(m: int, bounds: EigenBounds) -> float:
    """Eq. 5: the polynomial damping factor ``eps_m``.

    ``eps_m <= |T_m((lam_max+lam_min)/(lam_max-lam_min))|^{-1}`` — the worst-case
    reduction of the Chebyshev preconditioning polynomial over the spectrum.
    """
    if m < 0:
        raise ConfigurationError(f"polynomial degree must be >= 0, got {m}")
    if m == 0:
        return 1.0
    if bounds.delta == 0.0:
        return 0.0
    x = (bounds.lam_max + bounds.lam_min) / (bounds.lam_max - bounds.lam_min)
    return 1.0 / abs(_cheb_T(m, x))


@dataclass(frozen=True)
class IterationBounds:
    """Predicted iteration counts for CG vs CPPCG (Eqs. 4, 6, 7)."""

    kappa_cg: float
    kappa_pcg: float
    k_total: float       # total matvecs, Eq. 6
    k_outer: float       # outer (dot-product) iterations, Eq. 7
    dot_reduction: float  # ~ sqrt(kappa_cg/kappa_pcg): global-comm saving


def iteration_bounds(bounds: EigenBounds, inner_steps: int,
                     tolerance: float = 1e-10) -> IterationBounds:
    """The paper's Eqs. 4-7 for an ``inner_steps``-degree preconditioner.

    ``k_total`` bounds the matvec count (unchanged by polynomial
    preconditioning — O'Leary's optimality argument) while ``k_outer``
    bounds the number of iterations that perform global dot products;
    their ratio is the communication-avoidance factor of CPPCG.
    """
    if not 0 < tolerance < 1:
        raise ConfigurationError(f"tolerance must be in (0,1), got {tolerance}")
    kappa_cg = bounds.condition_number
    eps_m = chebyshev_epsilon(inner_steps, bounds)
    kappa_pcg = (1.0 + eps_m) / (1.0 - eps_m) if eps_m < 1.0 else np.inf
    log_term = np.log(2.0 / tolerance)
    k_total = 0.5 * np.sqrt(kappa_cg) * log_term
    k_outer = 0.5 * np.sqrt(kappa_pcg) * log_term
    reduction = k_total / k_outer if k_outer > 0 else np.inf
    return IterationBounds(kappa_cg=kappa_cg, kappa_pcg=kappa_pcg,
                           k_total=k_total, k_outer=k_outer,
                           dot_reduction=reduction)
