"""The Chebyshev interval and the paper's iteration-count bounds.

CPPCG and the Chebyshev solver need an interval ``[lam_min, lam_max]``
holding the spectrum of the (possibly preconditioned) operator.  Its two
ends come from different places, because only one of them can hurt:

- **``lam_max`` is proven** (:func:`lam_max_bound`).  An underestimated
  ``lam_max`` is the one error that makes the Chebyshev polynomial
  indefinite, so it is read off the operator, not estimated.  TeaLeaf's
  ``A`` is ``I`` plus a weighted graph Laplacian: each row's diagonal is
  ``d = 1 + sum |off-diagonal|``.  Gershgorin then gives
  ``lam_max(A) <= max(2d - 1)``.  Under a local preconditioner ``M``
  (diagonal or block Jacobi) ``2M - A`` has ``A``'s diagonal and ``A``'s
  off-diagonal magnitudes, so it is strictly diagonally dominant, hence
  SPD, hence ``lam_max(M^{-1} A) < 2``.
- **``lam_min`` is the paper's estimate** (§III-D): a few warm-up
  iterations of (P)CG give the coefficients ``alpha_i``/``beta_i`` of the
  Lanczos tridiagonal, whose smallest eigenvalue (Ritz value) converges
  to ``lam_min`` from above; :data:`LAM_MIN_SAFETY` widens it.  An
  overestimated ``lam_min`` keeps the polynomial SPD and only slows it.
  The Ritz extremes come from :func:`tridiagonal_extreme`, a Sturm-count
  bisection in plain IEEE double arithmetic with a fixed stopping rule,
  so their bits are the same on every CPU and need no LAPACK.

This module also implements the bounds of §III-C (Eqs. 4-7): the effective
PCG condition number under an ``m``-step Chebyshev preconditioner and the
resulting total/outer iteration counts — the analytic engine behind the
"ratio of outer to inner iterations" claim that motivates CPPCG.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from repro.utils.errors import ConfigurationError

#: Widening of the warm-up's smallest Ritz value, which converges to
#: ``lam_min`` from above (TeaLeaf's factor).
LAM_MIN_SAFETY = 0.95

#: Upper end of the spectrum of ``M^{-1} A`` under any local
#: preconditioner ``M`` (module docstring: ``2M - A`` is SPD).
PRECONDITIONED_LAM_MAX = 2.0


@dataclass(frozen=True)
class EigenBounds:
    """A finite spectral interval ``0 < lam_min <= lam_max``."""

    lam_min: float
    lam_max: float

    def __post_init__(self):
        if not (0 < self.lam_min <= self.lam_max < math.inf):
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
    betas = betas[:k - 1]
    if not (np.all(np.isfinite(alphas)) and np.all(np.isfinite(betas))):
        raise ConfigurationError("CG coefficients are not finite")
    if np.any(alphas <= 0) or np.any(betas < 0):
        raise ConfigurationError(
            "CG coefficients imply a non-SPD system (alpha<=0 or beta<0)")
    diag = 1.0 / alphas
    diag[1:] += betas / alphas[:-1]
    offdiag = np.sqrt(betas) / alphas[:-1]
    return diag, offdiag


def tridiagonal_extreme(diag, offdiag, largest: bool = False) -> float:
    """The smallest (or ``largest``) eigenvalue of the symmetric
    tridiagonal ``(diag, offdiag)``, by Sturm-count bisection as LAPACK's
    ``dstebz``.

    The Sturm count at ``x`` is the number of pivots of the ``LDL^T``
    factorisation of ``T - x I`` below ``pivmin`` (a pivot smaller in
    magnitude is replaced by ``-pivmin``): the number of eigenvalues at
    or below ``x``.  The smallest eigenvalue is the smallest double at
    which the count reaches 1, the largest the smallest at which it
    reaches ``len(diag)``, found by bisecting the widened Gershgorin
    interval until the midpoint equals an end.  Plain Python floats and
    a fixed stopping rule: the bits depend on the input alone.  A count
    stops at the first pivot that decides its question.
    """
    d = [float(v) for v in diag]
    e = [abs(float(v)) for v in offdiag]
    n = len(d)
    if n < 1 or len(e) != n - 1:
        raise ConfigurationError(
            f"tridiagonal of {n} diagonal and {len(e)} off-diagonal entries")
    e2 = [0.0] + [v * v for v in e]     # e2[0] = 0: q_0 = d[0] - x
    rows = list(zip(d, e2))
    radius = [a + b for a, b in zip([0.0] + e, e + [0.0])]
    lo = min(v - r for v, r in zip(d, radius))
    hi = max(v + r for v, r in zip(d, radius))
    pivmin = sys.float_info.min * max(1.0, max(e2))
    slack = 2.1 * (max(abs(lo), abs(hi)) * sys.float_info.epsilon * n
                   + 2.0 * pivmin)
    lo, hi = lo - slack, hi + slack
    if not (math.isfinite(lo) and math.isfinite(hi)
            and math.isfinite(pivmin)):
        raise ConfigurationError("tridiagonal entries overflow")

    def some_below(x):
        q = 1.0
        for di, ei2 in rows:
            q = di - x - ei2 / q
            if q < pivmin:
                return True
        return False

    def all_below(x):
        q = 1.0
        for di, ei2 in rows:
            q = di - x - ei2 / q
            if q >= pivmin:
                return False
            if q > -pivmin:
                q = -pivmin
        return True

    count_reached = all_below if largest else some_below
    while True:
        mid = 0.5 * lo + 0.5 * hi
        if not lo < mid < hi:
            return hi
        if count_reached(mid):
            hi = mid
        else:
            lo = mid


def estimate_eigenvalues(alphas, betas) -> EigenBounds:
    """The Ritz interval of CG coefficients: the extreme eigenvalues of
    their Lanczos tridiagonal (:func:`tridiagonal_extreme`), which lie
    *inside* the spectrum.  Raises :class:`ConfigurationError` when the
    coefficients are absent, non-finite or not those of an SPD system."""
    diag, offdiag = lanczos_tridiagonal(alphas, betas)
    return EigenBounds(
        lam_min=tridiagonal_extreme(diag, offdiag),
        lam_max=tridiagonal_extreme(diag, offdiag, largest=True))


def gershgorin_row_max(op) -> float:
    """This rank's largest Gershgorin row bound ``2d - 1``, ``d = diag(A)``.

    No communication.  Summed in float64 from the face coefficients,
    whatever the working dtype, in
    :func:`~repro.kernels.stencil_diagonal`'s order (a float64 operator
    gets ``op.diagonal()``'s bits).
    """
    region = op.kx.region(0)
    d = np.ones(op.tile.shape)
    for axis, k in enumerate(reversed(op.faces)):
        high = list(region)
        high[axis] = slice(region[axis].start + 1, region[axis].stop + 1)
        d += k.data[tuple(high)]
        d += k.data[region]
    return float((2.0 * d - 1.0).max())


def lam_max_bound(op, preconditioner: str = "none") -> float:
    """The proven upper end of the spectrum of ``M^{-1} A`` (module
    docstring): the global Gershgorin bound with no preconditioner (one
    ``allreduce(max)``), :data:`PRECONDITIONED_LAM_MAX` under a local one
    (no communication)."""
    if preconditioner == "none":
        return float(op.comm.allreduce(gershgorin_row_max(op), op="max"))
    if preconditioner in ("diagonal", "block_jacobi"):
        return PRECONDITIONED_LAM_MAX
    raise ConfigurationError(
        f"no spectrum bound for preconditioner {preconditioner!r}")


def spectrum_bounds(op, preconditioner: str, alphas, betas) -> EigenBounds:
    """The Chebyshev interval of ``M^{-1} A``: the warm-up's smallest Ritz
    value times :data:`LAM_MIN_SAFETY` below, :func:`lam_max_bound`
    above.  ``alphas``/``betas`` are the warm-up (P)CG's coefficients."""
    lam_max = lam_max_bound(op, preconditioner)
    ritz_min = tridiagonal_extreme(*lanczos_tridiagonal(alphas, betas))
    lam_min = ritz_min * LAM_MIN_SAFETY
    return EigenBounds(lam_min=lam_min, lam_max=lam_max)


def condition_estimate(alphas, betas, default: float = 1.0) -> float:
    """Condition-number estimate ``lam_max/lam_min`` from CG coefficients.

    The Ritz estimate (:func:`estimate_eigenvalues`): the Lanczos view of
    the spectrum as CG itself saw it, used by :mod:`repro.numerics` to size
    residual-replacement intervals and judge float32 feasibility.  Returns
    ``default`` when the coefficients are absent, non-SPD-looking or
    numerically unusable — condition-aware safeguards degrade to their
    fixed-cadence behaviour rather than fail.  Every such case is a
    :class:`ConfigurationError` of :func:`estimate_eigenvalues`.
    """
    try:
        kappa = estimate_eigenvalues(alphas, betas).condition_number
    except ConfigurationError:
        return default
    return float(kappa) if np.isfinite(kappa) else default


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
