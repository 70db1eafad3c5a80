"""The kernel backend behind the solver hot paths.

There is one backend, ``numpy``: the baseline bit patterns, run as
strict-IEEE C loops where a C compiler is present
(:class:`~repro.kernels.compiled.CompiledBackend`) and as the
cache-blocked, allocation-free NumPy replay otherwise
(:class:`~repro.kernels.numpy_backend.NumpyBackend`), the same bits
either way.  Which bodies run in this process is not a choice but a fact
of the machine: :func:`baseline_bodies` reports it.
"""

from __future__ import annotations

from repro.kernels.base import KERNEL_STREAMS, KernelBackend, stencil_diagonal
from repro.kernels.compiled import CompiledBackend, baseline, baseline_bodies
from repro.kernels.numpy_backend import NumpyBackend
from repro.utils.errors import ConfigurationError

DEFAULT_BACKEND = "numpy"


def get_backend(name: str) -> KernelBackend:
    """Construct the backend called ``name`` (``ConfigurationError`` for
    any name but ``numpy``)."""
    if name == DEFAULT_BACKEND:
        return baseline()
    raise ConfigurationError(
        f"unknown kernel backend {name!r}; known: {DEFAULT_BACKEND}")


__all__ = [
    "KERNEL_STREAMS",
    "KernelBackend",
    "NumpyBackend",
    "CompiledBackend",
    "DEFAULT_BACKEND",
    "baseline_bodies",
    "get_backend",
    "stencil_diagonal",
]
