"""Ablation: the solver design space on real (not modelled) solves.

Regenerates the paper's qualitative solver comparison at a tractable mesh:
iteration counts, reduction counts and wall-clock of Jacobi / CG /
CG+block-Jacobi / Chebyshev / CPPCG / MG-CG on the crooked-pipe first step.
"""

import pytest

from repro.solvers import SolverOptions
from repro.solvers.ranks import instrumented_stack, solve_on_ranks

from benchmarks.conftest import write_result
from tests.helpers import crooked_pipe_system

N = 96
CASES = {
    "Jacobi": SolverOptions(solver="jacobi", eps=1e-8, max_iters=500_000),
    "CG": SolverOptions(solver="cg", eps=1e-8),
    "CG+block": SolverOptions(solver="cg", eps=1e-8,
                              preconditioner="block_jacobi"),
    "Chebyshev": SolverOptions(solver="chebyshev", eps=1e-8),
    "CPPCG": SolverOptions(solver="ppcg", eps=1e-8, ppcg_inner_steps=10),
    "MG-CG": SolverOptions(solver="mgcg", eps=1e-8),
}

_rows = {}


def run_case(options):
    g, *faces, bg = crooked_pipe_system(N)
    run = solve_on_ranks(g, faces, bg, options, stack=instrumented_stack)
    assert run.result.converged
    return run.result, run.events


@pytest.mark.parametrize("name", list(CASES))
def test_solver(benchmark, name):
    options = CASES[name]
    result, log = benchmark.pedantic(run_case, args=(options,),
                                     iterations=1, rounds=1)
    _rows[name] = {
        "outer": result.iterations,
        "inner": result.inner_iterations,
        "warmup": result.warmup_iterations,
        "allreduces": log.count_kind("allreduce"),
        "matvecs": log.count("matvec"),
    }


def test_design_space_shape(benchmark, results_dir):
    """Cross-solver assertions (runs after the parametrised cases)."""
    benchmark.pedantic(lambda: None, iterations=1, rounds=1)
    assert set(_rows) == set(CASES)
    r = _rows
    # iteration hierarchy: Jacobi >> CG > CG+block; CPPCG outer tiny
    assert r["Jacobi"]["outer"] > 3 * r["CG"]["outer"]
    assert r["CG+block"]["outer"] < r["CG"]["outer"]
    assert r["CPPCG"]["outer"] < r["CG"]["outer"] / 4
    assert r["MG-CG"]["outer"] < r["CG"]["outer"] / 4
    # communication avoidance: CPPCG pays far fewer reductions than CG,
    # Chebyshev fewer still per matvec
    assert r["CPPCG"]["allreduces"] < r["CG"]["allreduces"] / 2
    assert (r["Chebyshev"]["allreduces"] / max(r["Chebyshev"]["matvecs"], 1)
            < r["CG"]["allreduces"] / r["CG"]["matvecs"])
    # O'Leary: polynomial preconditioning does not slash total matvecs
    assert r["CPPCG"]["matvecs"] > r["CG"]["matvecs"] / 3

    lines = ["solver,outer,inner,warmup,allreduces,matvecs"]
    for name, row in _rows.items():
        lines.append(f"{name},{row['outer']},{row['inner']},"
                     f"{row['warmup']},{row['allreduces']},{row['matvecs']}")
    write_result("ablation_solvers.csv", "\n".join(lines))
    print("\n" + "\n".join(lines))
