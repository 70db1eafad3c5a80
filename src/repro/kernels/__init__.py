"""Pluggable kernel backends for the solver hot paths.

Registry of :class:`~repro.kernels.base.KernelBackend` implementations:

========  ===========================================================
backend   implementation
========  ===========================================================
numpy     the baseline bit patterns: strict-IEEE C loops where a C
          compiler is present (:mod:`repro.kernels.compiled`), the
          cache-blocked, allocation-free NumPy replay otherwise
fused     the NumPy replay plus block-partial, chain-fused reductions
========  ===========================================================

Select per solve with ``SolverOptions(kernel_backend=...)`` or the deck
key ``tl_kernel_backend``; an unknown name is a
:class:`~repro.utils.errors.ConfigurationError`.  Which bodies the
baseline runs in this process is not a choice but a fact of the machine:
:func:`baseline_bodies` reports it.
"""

from __future__ import annotations

from repro.kernels.base import (KERNEL_STREAMS, REDUCTION_ULP_FACTOR,
                                KernelBackend, reduction_tolerance,
                                stencil_diagonal)
from repro.kernels.compiled import CompiledBackend, baseline, baseline_bodies
from repro.kernels.fused import FusedBackend
from repro.kernels.numpy_backend import NumpyBackend
from repro.utils.errors import ConfigurationError

DEFAULT_BACKEND = "numpy"

_FACTORIES = {
    "numpy": baseline,
    "fused": FusedBackend,
}

#: Every backend name the registry knows about.
KNOWN_BACKENDS = tuple(_FACTORIES)


def backend_status() -> dict:
    """Map of backend name -> availability reason ("" when available:
    neither backend needs anything the package does not ship)."""
    return dict.fromkeys(KNOWN_BACKENDS, "")


def available_backends() -> tuple:
    """Names of backends that :func:`get_backend` will construct."""
    return KNOWN_BACKENDS


def get_backend(name: str) -> KernelBackend:
    """Construct the backend called ``name`` (``ConfigurationError`` for
    an unknown one)."""
    if name in _FACTORIES:
        return _FACTORIES[name]()
    raise ConfigurationError(
        f"unknown kernel backend {name!r}; known: {', '.join(KNOWN_BACKENDS)}")


__all__ = [
    "KERNEL_STREAMS",
    "REDUCTION_ULP_FACTOR",
    "KernelBackend",
    "NumpyBackend",
    "CompiledBackend",
    "FusedBackend",
    "KNOWN_BACKENDS",
    "DEFAULT_BACKEND",
    "backend_status",
    "baseline_bodies",
    "available_backends",
    "get_backend",
    "reduction_tolerance",
    "stencil_diagonal",
]
