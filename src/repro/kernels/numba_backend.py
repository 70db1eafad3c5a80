"""Optional ``numba`` backend — JIT-compiled serial loops.

Auto-detected: availability is probed via ``importlib.util.find_spec``
(cheap, no import cost) and the heavy ``numba`` import plus JIT
compilation are deferred until the backend is first instantiated.  When
numba is not installed the registry reports the backend as unavailable
with a human-readable reason and :func:`repro.kernels.get_backend`
raises ``ConfigurationError`` — nothing else in the package imports
numba, so the absence is a clean skip, never an ImportError.

Numerical policy: the stencil loop evaluates the baseline expression in
the same per-element operation order (with the ``1.0`` constant cast to
the array dtype so float32 arithmetic stays float32), so elementwise
results are bit-identical to the ``numpy`` backend.  Reductions
accumulate serially in float64 and fall under the documented
reassociation bound of :func:`repro.kernels.base.reduction_tolerance`.
"""

from __future__ import annotations

import importlib.util

import numpy as np

from repro.kernels.numpy_backend import NumpyBackend


def available() -> bool:
    """True when the numba package can be imported."""
    return importlib.util.find_spec("numba") is not None


UNAVAILABLE_REASON = "numba is not installed (pip install 'repro[numba]')"

_jitted = None


def _compile():  # pragma: no cover - requires numba
    """Import numba and build the jitted kernel set (once)."""
    global _jitted
    if _jitted is not None:
        return _jitted
    import numba

    @numba.njit(cache=True)
    def stencil(kx, ky, p, out, r0, r1, c0, c1, one):
        for k in range(r0, r1):
            for j in range(c0, c1):
                ky_hi = ky[k + 1, j]
                ky_lo = ky[k, j]
                kx_hi = kx[k, j + 1]
                kx_lo = kx[k, j]
                out[k, j] = (
                    (one + ky_hi + ky_lo + kx_hi + kx_lo) * p[k, j]
                    - ky_hi * p[k + 1, j]
                    - ky_lo * p[k - 1, j]
                    - kx_hi * p[k, j + 1]
                    - kx_lo * p[k, j - 1]
                )

    @numba.njit(cache=True)
    def stencil_dot(kx, ky, p, out, r0, r1, c0, c1, one):
        acc = 0.0
        for k in range(r0, r1):
            for j in range(c0, c1):
                ky_hi = ky[k + 1, j]
                ky_lo = ky[k, j]
                kx_hi = kx[k, j + 1]
                kx_lo = kx[k, j]
                w = (
                    (one + ky_hi + ky_lo + kx_hi + kx_lo) * p[k, j]
                    - ky_hi * p[k + 1, j]
                    - ky_lo * p[k - 1, j]
                    - kx_hi * p[k, j + 1]
                    - kx_lo * p[k, j - 1]
                )
                out[k, j] = w
                acc += np.float64(p[k, j]) * np.float64(w)
        return acc

    @numba.njit(cache=True)
    def stencil_axpy_dot(kx, ky, p, out, y, alpha, r0, r1, c0, c1, one):
        acc = 0.0
        for k in range(r0, r1):
            for j in range(c0, c1):
                ky_hi = ky[k + 1, j]
                ky_lo = ky[k, j]
                kx_hi = kx[k, j + 1]
                kx_lo = kx[k, j]
                w = (
                    (one + ky_hi + ky_lo + kx_hi + kx_lo) * p[k, j]
                    - ky_hi * p[k + 1, j]
                    - ky_lo * p[k - 1, j]
                    - kx_hi * p[k, j + 1]
                    - kx_lo * p[k, j - 1]
                )
                out[k, j] = w
                yv = y[k, j] + alpha * w
                y[k, j] = yv
                acc += np.float64(yv) * np.float64(yv)
        return acc

    @numba.njit(cache=True)
    def dot2(a, b):
        acc = 0.0
        fa = a.ravel()
        fb = b.ravel()
        for i in range(fa.size):
            acc += np.float64(fa[i]) * np.float64(fb[i])
        return acc

    @numba.njit(cache=True)
    def axpy2(y, alpha, x):
        fy = y.reshape(-1)
        fx = x.reshape(-1)
        for i in range(fy.size):
            fy[i] = fy[i] + alpha * fx[i]

    _jitted = (stencil, stencil_dot, stencil_axpy_dot, dot2, axpy2)
    return _jitted


class NumbaBackend(NumpyBackend):  # pragma: no cover - requires numba
    """Serial JIT loops; elementwise order matches the baseline."""

    name = "numba"

    def __init__(self) -> None:
        super().__init__()
        (self._stencil, self._stencil_dot, self._stencil_axpy_dot,
         self._dot, self._axpy) = _compile()

    @staticmethod
    def _one(a):
        return a.dtype.type(1.0)

    def stencil_apply(self, kx, ky, p, out, r0, r1, c0, c1):
        self._stencil(kx, ky, p, out, r0, r1, c0, c1, self._one(p))

    def apply_dot(self, kx, ky, p, out, r0, r1, c0, c1):
        return float(self._stencil_dot(kx, ky, p, out, r0, r1, c0, c1,
                                       self._one(p)))

    def apply_axpy_dot(self, kx, ky, p, out, y, alpha, r0, r1, c0, c1):
        return float(self._stencil_axpy_dot(
            kx, ky, p, out, y, y.dtype.type(alpha), r0, r1, c0, c1,
            self._one(p)))

    def dot(self, a, b):
        return float(self._dot(np.ascontiguousarray(a),
                               np.ascontiguousarray(b)))

    def axpy(self, y, alpha, x):
        if y.flags.c_contiguous and x.flags.c_contiguous:
            self._axpy(y, y.dtype.type(alpha), x)
        else:
            super().axpy(y, alpha, x)
