"""Working-precision utilities for mixed-precision solves.

This module is the *single sanctioned home* of single-precision dtype
literals in the tree: the analyzer's RPR005 rule forbids ``np.float32``
everywhere else (``mixed-precision-paths`` in ``[tool.repro-analysis]``),
so every other layer must take the working precision through the
``SolverOptions.dtype`` knob and the helpers here.

The model follows the classic mixed-precision iterative-refinement
literature: the *working* precision carries the fields, the operator
coefficients and the inner solver arithmetic, while global reductions and
the outer defect/refinement arithmetic stay in float64 (reductions return
Python floats regardless of field dtype, see
:meth:`repro.solvers.operator.StencilOperator2D.dots`).
"""

from __future__ import annotations

import math

import numpy as np

from repro.mesh.field import Field
from repro.solvers.operator import StencilOperator2D
from repro.utils.errors import ConfigurationError

#: The supported working precisions, keyed by their SolverOptions spelling.
DTYPES: dict[str, np.dtype] = {
    "float32": np.dtype(np.float32),
    "float64": np.dtype(np.float64),
}


def resolve_dtype(dtype: str | np.dtype) -> np.dtype:
    """Map a ``SolverOptions.dtype`` spelling (or dtype) to a numpy dtype."""
    name = dtype if isinstance(dtype, str) else np.dtype(dtype).name
    try:
        return DTYPES[name]
    except KeyError:
        raise ConfigurationError(
            f"unsupported working dtype {dtype!r}: choose from "
            f"{sorted(DTYPES)}") from None


def unit_roundoff(dtype: str | np.dtype) -> float:
    """The unit roundoff ``u = eps/2`` of a working precision."""
    return float(np.finfo(resolve_dtype(dtype)).eps) / 2.0


def inner_tolerance(dtype: str | np.dtype, eps: float) -> float:
    """Stopping tolerance for an inner (reduced-precision) refinement solve.

    Solving each defect system to the outer tolerance is both wasteful and —
    below the working precision's attainable accuracy — impossible, so the
    inner solves stop at ``max(eps, sqrt(u))`` and the outer refinement loop
    recovers the remaining digits in float64.
    """
    return max(eps, math.sqrt(unit_roundoff(dtype)))


def cast_field(f: Field, dtype: str | np.dtype) -> Field:
    """A copy of ``f`` in the requested precision (``f`` itself if it
    already matches — casting is only paid when precision actually changes)."""
    dt = resolve_dtype(dtype)
    if f.data.dtype == dt:
        return f
    return Field(f.tile, f.halo, f.data.astype(dt))


def cast_operator(op: StencilOperator2D, dtype: str | np.dtype
                  ) -> StencilOperator2D:
    """An operator whose coefficients (and workspaces) live at ``dtype``.

    Shares the communicator, event log and tracer of ``op`` so demoted
    solves keep recording into the same profile; returns ``op`` unchanged
    when the precision already matches.
    """
    dt = resolve_dtype(dtype)
    if op.dtype == dt:
        return op
    return StencilOperator2D(
        kx=cast_field(op.kx, dt),
        ky=cast_field(op.ky, dt),
        kz=None if op.kz is None else cast_field(op.kz, dt),
        comm=op.comm,
        events=op.events,
        tracer=op.tracer,
    )
