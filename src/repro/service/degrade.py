"""Overload-graceful degradation ladder.

Under queue pressure the engine trades solve quality-of-service for
throughput by laddering a request's :class:`SolverOptions` down through
cheaper configurations (reusing the degradation hooks the solvers
already honour).  Two rungs, in the order they are applied:

1. ``depth1``   — matrix-powers halo depth → 1 (the same fallback the
   CPPCG inner iteration takes on repeated halo-exchange failure);
2. ``cg``       — Chebyshev/CPPCG → plain CG (skips the warm-up
   eigenvalue estimation entirely).

Each rung returns ``None`` when it does not apply, so
:func:`degrade_for_pressure` composes only the applicable ones and
reports exactly which rungs were taken — the ledger's degrade-rate SLO
counts those.
"""

from __future__ import annotations

from dataclasses import replace

from repro.solvers.options import SolverOptions


def _depth1(options: SolverOptions):
    if options.solver in ("chebyshev", "ppcg") and options.halo_depth > 1:
        return replace(options, halo_depth=1)
    return None


def _to_cg(options: SolverOptions):
    if options.solver in ("chebyshev", "ppcg"):
        return replace(options, solver="cg", halo_depth=1)
    return None


#: (rung name, transform) in application order.
LADDER = (
    ("depth1", _depth1),
    ("cg", _to_cg),
)


def degrade_for_pressure(options: SolverOptions,
                         level: int) -> tuple[SolverOptions, list[str]]:
    """Apply the first ``level`` *applicable* rungs to ``options``.

    Returns the (possibly unchanged) options and the names of the rungs
    actually taken.  ``level <= 0`` is the identity.
    """
    applied: list[str] = []
    for name, rung in LADDER:
        if len(applied) >= level:
            break
        downgraded = rung(options)
        if downgraded is not None:
            options = downgraded
            applied.append(name)
    return options, applied
