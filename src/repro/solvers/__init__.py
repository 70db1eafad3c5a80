"""Iterative sparse linear solvers over the matrix-free stencil operator.

The design space the paper explores:

- :func:`~repro.solvers.jacobi.jacobi_solve` — point Jacobi relaxation,
- :func:`~repro.solvers.cg.cg_solve` — (preconditioned) conjugate gradients,
- :func:`~repro.solvers.chebyshev.chebyshev_solve` — Chebyshev iteration
  (needs a-priori eigenvalue bounds; no dot products per iteration),
- :func:`~repro.solvers.ppcg.ppcg_solve` — **CPPCG**, CG preconditioned by a
  shifted/scaled Chebyshev polynomial: the paper's communication-avoiding
  contribution, optionally combined with the matrix powers kernel
  (``halo_depth`` > 1) so inner iterations exchange a deep halo once per
  ``halo_depth`` stencil applications.

Plus the supporting machinery: :class:`~repro.solvers.defences.Defences`
(every safeguard around the cg/ppcg/chebyshev loops — guard rollback, ABFT
replay, residual replacement, cancellation), the matrix-free operator
(Listing 1),
the Chebyshev interval (``lam_min`` from the CG Lanczos recurrence,
``lam_max`` a Gershgorin bound), and the local
preconditioners (diagonal Jacobi, 4x1-strip block Jacobi via the Thomas
algorithm).
"""

from repro.solvers.operator import (StencilOperator, StencilOperator2D,
                                    embed_global)
from repro.solvers.result import SolveResult
from repro.solvers.eigen import (
    EigenBounds,
    lanczos_tridiagonal,
    estimate_eigenvalues,
    chebyshev_epsilon,
    iteration_bounds,
    IterationBounds,
)
from repro.solvers.preconditioners import (
    Preconditioner,
    IdentityPreconditioner,
    DiagonalPreconditioner,
    BlockJacobiPreconditioner,
    make_local_preconditioner,
)
from repro.solvers.defences import Defences
from repro.solvers.cg import cg_solve
from repro.solvers.cg_fused import cg_fused_solve
from repro.solvers.deflation import DeflationSpace, deflated_cg_solve
from repro.solvers.jacobi import jacobi_solve
from repro.solvers.chebyshev import ChebyshevPreconditioner, chebyshev_solve
from repro.solvers.ppcg import ppcg_solve
from repro.solvers.options import SolverOptions
from repro.solvers.driver import solve_linear

__all__ = [
    "StencilOperator",
    "StencilOperator2D",
    "embed_global",
    "SolveResult",
    "Defences",
    "EigenBounds",
    "lanczos_tridiagonal",
    "estimate_eigenvalues",
    "chebyshev_epsilon",
    "iteration_bounds",
    "IterationBounds",
    "Preconditioner",
    "IdentityPreconditioner",
    "DiagonalPreconditioner",
    "BlockJacobiPreconditioner",
    "make_local_preconditioner",
    "cg_solve",
    "cg_fused_solve",
    "DeflationSpace",
    "deflated_cg_solve",
    "jacobi_solve",
    "ChebyshevPreconditioner",
    "chebyshev_solve",
    "ppcg_solve",
    "SolverOptions",
    "solve_linear",
]
