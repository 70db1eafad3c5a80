"""Integration: every solver configuration, decomposed == serial.

This is the library's central correctness property — the distributed
algorithms (halo exchange at any depth, reduction placement, matrix powers,
truncated preconditioner strips at rank boundaries) must reproduce the
serial solve to floating-point reassociation tolerance.
"""

import numpy as np
import pytest

from repro.solvers import SolverOptions

from tests.helpers import (
    crooked_pipe_system,
    distributed_solve,
    reference_solution,
    system_3d,
)

pytestmark = pytest.mark.distributed

N = 32
EPS = 1e-11
#: Solutions of two layouts differ by at most this many ULPs of max|x|.
LAYOUT_ULPS = 64.0


@pytest.fixture(scope="module")
def system():
    g, kx, ky, bg = crooked_pipe_system(N)
    return g, kx, ky, bg, reference_solution(kx, ky, bg)


CONFIGS = [
    pytest.param(SolverOptions(solver="cg", eps=EPS), id="cg"),
    pytest.param(SolverOptions(solver="cg", eps=EPS,
                               preconditioner="diagonal"), id="cg-diag"),
    pytest.param(SolverOptions(solver="cg", eps=EPS,
                               preconditioner="block_jacobi"), id="cg-block"),
    pytest.param(SolverOptions(solver="ppcg", eps=EPS, ppcg_inner_steps=8),
                 id="ppcg-1"),
    pytest.param(SolverOptions(solver="ppcg", eps=EPS, ppcg_inner_steps=8,
                               halo_depth=4), id="ppcg-4"),
    pytest.param(SolverOptions(solver="ppcg", eps=EPS, ppcg_inner_steps=12,
                               halo_depth=8), id="ppcg-8"),
    pytest.param(SolverOptions(solver="ppcg", eps=EPS, ppcg_inner_steps=8,
                               preconditioner="diagonal", halo_depth=4),
                 id="ppcg-4-diag"),
    pytest.param(SolverOptions(solver="ppcg", eps=EPS, ppcg_inner_steps=8,
                               preconditioner="block_jacobi"),
                 id="ppcg-1-block"),
    pytest.param(SolverOptions(solver="chebyshev", eps=1e-9), id="cheby"),
    pytest.param(SolverOptions(solver="chebyshev", eps=1e-9, halo_depth=4),
                 id="cheby-4"),
    pytest.param(SolverOptions(solver="jacobi", eps=1e-8, max_iters=200_000),
                 id="jacobi"),
]


@pytest.mark.parametrize("options", CONFIGS)
@pytest.mark.parametrize("size", [2, 4])
def test_distributed_matches_reference(system, options, size):
    g, kx, ky, bg, x_ref = system
    x, result = distributed_solve(g, kx, ky, bg, options, size)
    assert result.converged
    scale = np.abs(x_ref).max()
    tol = 1e-4 if options.solver == "jacobi" else 1e-7
    assert np.abs(x - x_ref).max() <= tol * scale


@pytest.mark.parametrize("size", [3, 6])
def test_uneven_decompositions(system, size):
    """Tile sizes that do not divide the mesh evenly still agree."""
    g, kx, ky, bg, x_ref = system
    options = SolverOptions(solver="ppcg", eps=EPS, ppcg_inner_steps=8,
                            halo_depth=4)
    x, result = distributed_solve(g, kx, ky, bg, options, size)
    assert result.converged
    assert np.abs(x - x_ref).max() <= 1e-7 * np.abs(x_ref).max()


def test_iteration_counts_decomposition_invariant(system):
    """Same iterates regardless of rank count (mod FP reassociation)."""
    g, kx, ky, bg, _ = system
    options = SolverOptions(solver="cg", eps=EPS)
    iters = []
    for size in (1, 2, 4, 6):
        _, result = distributed_solve(g, kx, ky, bg, options, size)
        iters.append(result.iterations)
    assert max(iters) - min(iters) <= 1


@pytest.mark.parametrize("options", [
    pytest.param(SolverOptions(solver="cg", eps=EPS), id="cg"),
    pytest.param(SolverOptions(solver="ppcg", eps=EPS, ppcg_inner_steps=8,
                               halo_depth=2), id="ppcg-2"),
])
@pytest.mark.parametrize("layouts", [
    [(1, 1), (2, 1), (2, 2), (4, 1)],
    [(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2)],
], ids=["2d", "3d"])
def test_decomposition_invariance(system, layouts, options):
    """However the mesh is cut — 32^2 crooked pipe, 12^3 random system —
    the solve takes the same outer and inner iterations and lands on the
    same solution to the reduction envelope: only the order in which the
    dot products' partial sums are added depends on the layout."""
    if len(layouts[0]) == 2:
        g, *faces, bg, _ = system
    else:
        g, faces, bg, _ = system_3d()
    runs = [distributed_solve(g, *faces, bg, options, int(np.prod(factors)),
                              factors=factors) for factors in layouts]
    x_ref, ref = runs[0]
    assert ref.converged and ref.iterations > 3
    envelope = LAYOUT_ULPS * np.finfo(float).eps * np.abs(x_ref).max()
    for x, result in runs[1:]:
        assert (result.iterations, result.inner_iterations) == \
            (ref.iterations, ref.inner_iterations)
        assert np.abs(x - x_ref).max() <= envelope


def test_block_jacobi_truncated_strips_at_rank_boundaries(system):
    """Rank-local strips change the preconditioner, not the answer."""
    g, kx, ky, bg, x_ref = system
    options = SolverOptions(solver="cg", eps=EPS,
                            preconditioner="block_jacobi")
    # py=2 splits strips across ranks in y -> truncated strips appear
    x, result = distributed_solve(g, kx, ky, bg, options, 4)
    assert result.converged
    assert np.abs(x - x_ref).max() <= 1e-7 * np.abs(x_ref).max()
