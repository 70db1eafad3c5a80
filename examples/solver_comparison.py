"""Design-space exploration: the full solver menu on one hard step.

Reproduces the paper's qualitative comparison with *real* instrumented
solves: iterations, matvecs, global reductions and halo traffic for every
solver/preconditioner combination, printed as a table.

Run:  python examples/solver_comparison.py [mesh_n]
"""

import sys

from repro import Grid2D, SolverOptions, crooked_pipe
from repro.io import format_table
from repro.physics import first_step_system
from repro.solvers.ranks import instrumented_stack, solve_on_ranks

CASES = [
    ("Jacobi", SolverOptions(solver="jacobi", eps=1e-8, max_iters=500_000)),
    ("CG", SolverOptions(solver="cg", eps=1e-8)),
    ("CG + diag", SolverOptions(solver="cg", eps=1e-8,
                                preconditioner="diagonal")),
    ("CG + block", SolverOptions(solver="cg", eps=1e-8,
                                 preconditioner="block_jacobi")),
    ("Chebyshev", SolverOptions(solver="chebyshev", eps=1e-8)),
    ("CPPCG m=5", SolverOptions(solver="ppcg", eps=1e-8,
                                ppcg_inner_steps=5)),
    ("CPPCG m=10", SolverOptions(solver="ppcg", eps=1e-8,
                                 ppcg_inner_steps=10)),
    ("CPPCG m=10 d=8", SolverOptions(solver="ppcg", eps=1e-8,
                                     ppcg_inner_steps=10, halo_depth=8)),
    ("MG-CG", SolverOptions(solver="mgcg", eps=1e-8)),
]


def main(mesh_n: int = 96) -> None:
    grid, *faces, bg = first_step_system(Grid2D(mesh_n, mesh_n),
                                         crooked_pipe())
    rows = []
    for name, options in CASES:
        run = solve_on_ranks(grid, faces, bg, options,
                             stack=instrumented_stack)
        result, log = run.result, run.events
        rows.append([
            name,
            result.iterations,
            result.inner_iterations,
            result.warmup_iterations,
            log.count("matvec"),
            log.count_kind("allreduce"),
            log.count_kind("halo_exchange"),
            "yes" if result.converged else "NO",
        ])
    print(f"crooked-pipe first step, {mesh_n}x{mesh_n}, eps = 1e-8\n")
    print(format_table(
        ["solver", "outer", "inner", "warmup", "matvecs",
         "reductions", "exchanges", "converged"], rows))
    print("\nReading guide: CPPCG trades matvecs for reductions — the "
          "communication-avoiding bet that wins at scale (Figs. 5-7).")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 96)
