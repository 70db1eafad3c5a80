"""Geometric multigrid: the paper's third-party-solver baseline, rebuilt.

The paper benchmarks TeaLeaf's solvers against PETSc's CG preconditioned by
Hypre's BoomerAMG.  Neither library is available here, so this package
implements the closest in-spirit substitute on the structured grid: a
geometric multigrid V-cycle (Galerkin-coarsened coefficients, piecewise
constant transfers, weighted-Jacobi or Chebyshev smoothing, direct coarse
solve) used as a CG preconditioner ("MG-CG").  One hybrid V-cycle serves
every world size: decomposed levels, then the coarsest level agglomerated
on rank 0 (:mod:`repro.multigrid.mgcg`).

The substitution preserves what the evaluation actually measures: MG-CG
converges in very few outer iterations (best-in-class at low node counts)
but each cycle traverses every level — the per-level halo exchanges and
tiny coarse-grid messages are what makes the baseline's strong scaling
collapse beyond ~32 nodes in Fig. 7, and the performance model charges it
for exactly those.
"""

from repro.multigrid.transfer import restrict_full_weighting, prolong_constant
from repro.multigrid.mgcg import (
    Multigrid,
    MultigridPreconditioner,
    mgcg_solve,
    multigrid_solve,
)

__all__ = [
    "restrict_full_weighting",
    "prolong_constant",
    "Multigrid",
    "MultigridPreconditioner",
    "mgcg_solve",
    "multigrid_solve",
]
