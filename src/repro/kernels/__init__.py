"""Pluggable kernel backends for the solver hot paths.

Registry of :class:`~repro.kernels.base.KernelBackend` implementations:

========  ===========================================================
backend   implementation
========  ===========================================================
numpy     the baseline: cache-blocked, allocation-free NumPy
fused     the baseline plus block-partial, chain-fused reductions
numba     JIT-compiled serial loops (optional; auto-detected)
========  ===========================================================

Select per solve with ``SolverOptions(kernel_backend=...)`` or the deck
key ``tl_kernel_backend``.  Requesting an unavailable backend raises
:class:`~repro.utils.errors.ConfigurationError` carrying the reason
reported by :func:`backend_status`.
"""

from __future__ import annotations

from repro.kernels import numba_backend
from repro.kernels.base import (KERNEL_STREAMS, REDUCTION_ULP_FACTOR,
                                KernelBackend, reduction_tolerance,
                                stencil_diagonal)
from repro.kernels.fused import FusedBackend
from repro.kernels.numpy_backend import NumpyBackend
from repro.utils.errors import ConfigurationError

#: Every backend name the registry knows about, available or not.
KNOWN_BACKENDS = ("numpy", "fused", "numba")

DEFAULT_BACKEND = "numpy"

_FACTORIES = {
    "numpy": NumpyBackend,
    "fused": FusedBackend,
}


def backend_status() -> dict:
    """Map of backend name -> availability reason ("" when available)."""
    status = {name: "" for name in _FACTORIES}
    status["numba"] = ("" if numba_backend.available()
                       else numba_backend.UNAVAILABLE_REASON)
    return status


def available_backends() -> tuple:
    """Names of backends that :func:`get_backend` will construct."""
    return tuple(name for name in KNOWN_BACKENDS if not backend_status()[name])


def get_backend(name: str) -> KernelBackend:
    """Construct the backend called ``name``.

    Raises ``ConfigurationError`` for unknown names and for known but
    unavailable backends (carrying the skip reason).
    """
    if name in _FACTORIES:
        return _FACTORIES[name]()
    if name == "numba":
        if not numba_backend.available():
            raise ConfigurationError(
                f"kernel backend 'numba' is unavailable: "
                f"{numba_backend.UNAVAILABLE_REASON}")
        return numba_backend.NumbaBackend()  # pragma: no cover
    raise ConfigurationError(
        f"unknown kernel backend {name!r}; known: {', '.join(KNOWN_BACKENDS)}")


__all__ = [
    "KERNEL_STREAMS",
    "REDUCTION_ULP_FACTOR",
    "KernelBackend",
    "NumpyBackend",
    "FusedBackend",
    "KNOWN_BACKENDS",
    "DEFAULT_BACKEND",
    "backend_status",
    "available_backends",
    "get_backend",
    "reduction_tolerance",
    "stencil_diagonal",
]
