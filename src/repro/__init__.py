"""repro — a Python reproduction of the TeaLeaf mini-application.

TeaLeaf (McIntosh-Smith et al., IEEE CLUSTER 2017) is a mini-app for
design-space exploration of iterative sparse linear solvers on the implicit
heat-conduction problem.  This library rebuilds, from scratch:

- the mini-app itself (:mod:`repro.mesh`, :mod:`repro.physics`): structured
  grid, rectangular decomposition, halo exchange, input decks, the
  crooked-pipe benchmark;
- the solver design space (:mod:`repro.solvers`): Jacobi, CG, Chebyshev and
  the paper's communication-avoiding **CPPCG** with block-Jacobi
  preconditioning and the matrix powers kernel;
- the baseline (:mod:`repro.multigrid`): a geometric-multigrid-preconditioned
  CG standing in for PETSc CG + BoomerAMG;
- the distributed substrate (:mod:`repro.comm`): an in-process SPMD world
  (thread ranks, mpi4py-flavoured API) with traffic instrumentation;
- the evaluation (:mod:`repro.perfmodel`, :mod:`repro.harness`): calibrated
  machine models of Titan, Piz Daint and Spruce regenerating every table and
  figure of the paper's strong-scaling study.

Quickstart::

    from repro import (Grid2D, SolverOptions, crooked_pipe, run_simulation)
    report = run_simulation(Grid2D(64, 64), crooked_pipe(),
                            SolverOptions(solver="ppcg"), n_steps=10)
    print(report.final_mean_temperature)
"""

from repro.mesh import Grid2D, Grid3D, Field, Tile, decompose, HaloExchanger
from repro.comm import (
    SerialComm,
    ThreadComm,
    ThreadWorld,
    InstrumentedComm,
    launch_spmd,
)
from repro.physics import (
    Conductivity,
    ProblemSpec,
    RegionSpec,
    crooked_pipe,
    uniform_problem,
    hot_square,
    parse_deck,
    parse_deck_text,
    Simulation,
    SimulationReport,
    run_simulation,
)
from repro.solvers import (
    StencilOperator,
    StencilOperator2D,
    SolverOptions,
    SolveResult,
    solve_linear,
    cg_solve,
    ppcg_solve,
    chebyshev_solve,
    jacobi_solve,
    EigenBounds,
    estimate_eigenvalues,
    iteration_bounds,
)
from repro.utils import (
    ReproError,
    ConfigurationError,
    ConvergenceError,
    DecompositionError,
    CommunicationError,
)

__version__ = "1.0.0"

__all__ = [
    "Grid2D",
    "Grid3D",
    "Field",
    "Tile",
    "decompose",
    "HaloExchanger",
    "SerialComm",
    "ThreadComm",
    "ThreadWorld",
    "InstrumentedComm",
    "launch_spmd",
    "Conductivity",
    "ProblemSpec",
    "RegionSpec",
    "crooked_pipe",
    "uniform_problem",
    "hot_square",
    "parse_deck",
    "parse_deck_text",
    "Simulation",
    "SimulationReport",
    "run_simulation",
    "StencilOperator",
    "StencilOperator2D",
    "SolverOptions",
    "SolveResult",
    "solve_linear",
    "cg_solve",
    "ppcg_solve",
    "chebyshev_solve",
    "jacobi_solve",
    "EigenBounds",
    "estimate_eigenvalues",
    "iteration_bounds",
    "ReproError",
    "ConfigurationError",
    "ConvergenceError",
    "DecompositionError",
    "CommunicationError",
    "__version__",
]
