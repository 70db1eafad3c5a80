"""Microbenchmarks of the computational kernels (Listing 1 and friends).

These are the building blocks whose byte-per-cell costs parameterise the
performance model; benchmarking them documents the achieved bandwidth of
both bodies of the one :mod:`repro.kernels` backend.  The stencil/BLAS-1
cases parametrize over them: ``compiled`` (the C loops, skipped where the
machine has no C compiler) and ``replay`` (the pure NumPy replay).

The benchmark of record is perfbench (``python3 -m perfbench``); this
pytest-benchmark suite is the interactive companion for quick A/B runs
when the plugin is installed.
"""

import numpy as np
import pytest

from repro.comm import SerialComm
from repro.kernels import CompiledBackend, NumpyBackend, baseline_bodies
from repro.mesh import Field, Grid2D, HaloExchanger, decompose
from repro.solvers import (
    BlockJacobiPreconditioner,
    DiagonalPreconditioner,
    StencilOperator2D,
)
from repro.solvers.chebyshev import ChebyshevIteration
from repro.solvers.eigen import EigenBounds

from tests.helpers import crooked_pipe_system

N = 512

#: The two shipped bodies of the ``numpy`` backend.
BODIES = ["compiled", "replay"]


def _bodies(name):
    """A fresh backend running the named bodies."""
    if name == "replay":
        return NumpyBackend()
    if baseline_bodies()[0] != "compiled":
        pytest.skip(baseline_bodies()[1])
    return CompiledBackend()


@pytest.fixture(scope="module")
def op():
    g, kx, ky, _ = crooked_pipe_system(N)
    tile = decompose(g, 1)[0]
    return StencilOperator2D.from_global_faces(tile, 1, kx, ky, SerialComm())


@pytest.fixture(scope="module")
def vec(op):
    rng = np.random.default_rng(7)
    return Field.from_global(op.tile, 1, rng.standard_normal((N, N)))


@pytest.fixture(scope="module", params=BODIES)
def routed_op(request, op):
    """The serial operator routed through each body of the backend."""
    return op.with_kernels(_bodies(request.param))


def test_matvec(benchmark, routed_op, vec):
    """w = A p: the paper's Listing 1 kernel, per body."""
    w = routed_op.new_field()
    benchmark(routed_op.apply_noexchange, vec, w)


def test_matvec_with_exchange(benchmark, routed_op, vec):
    w = routed_op.new_field()
    benchmark(routed_op.apply, vec, w)


def test_matvec_dot_chain(benchmark, routed_op, vec):
    """The fusion CG chain: one exchange, stencil + direction dot."""
    w = routed_op.new_field()
    result = benchmark(routed_op.apply_dot, vec, w)
    assert result > 0


def test_residual_norm_chain(benchmark, routed_op, vec):
    """The Jacobi chain: residual + convergence norm in one pass."""
    r = routed_op.new_field()
    result = benchmark(routed_op.residual_dot, vec, vec, r)
    assert result >= 0


def test_dot_product(benchmark, routed_op, vec):
    result = benchmark(routed_op.dot, vec, vec)
    assert result > 0


def test_fused_dots(benchmark, routed_op, vec):
    """Two dot products in one reduction (the paper's §VII restructuring)."""
    benchmark(routed_op.dots, [(vec, vec), (vec, vec)])


@pytest.mark.parametrize("bodies", BODIES)
def test_axpy(benchmark, bodies, vec):
    """y += alpha x on the interior view, per body."""
    k = _bodies(bodies)
    y = vec.copy()
    benchmark(k.axpy, y.interior, 0.0, vec.interior)


def test_diagonal_preconditioner(benchmark, op, vec):
    M = DiagonalPreconditioner(op)
    z = op.new_field()
    benchmark(M.apply, vec, z)


def test_block_jacobi_apply(benchmark, op, vec):
    """Vectorised Thomas over all 4x1 strips."""
    M = BlockJacobiPreconditioner(op)
    z = op.new_field()
    benchmark(M.apply, vec, z)


def test_block_jacobi_setup(benchmark, op):
    benchmark(BlockJacobiPreconditioner, op)


def test_chebyshev_inner_step(benchmark, op, vec):
    """One inner step from a fresh residual: the iteration — its ``d``,
    ``w`` and bound step — is kept across rounds, as CPPCG's
    preconditioner keeps it across applications."""
    rr, x = vec.copy(), op.new_field()
    it = ChebyshevIteration(op, rr, x, EigenBounds(1.0, 50.0))

    def one_step():
        rr.data[...] = vec.data
        it.restart(x)
        it.run(1)

    benchmark(one_step)


def test_halo_pack_cost(benchmark):
    """Depth-8 halo exchange on a 2-rank world (pack + copy + unpack)."""
    from repro.comm import ThreadWorld
    import threading

    g = Grid2D(N, N)

    def run():
        world = ThreadWorld(2)
        out = []

        def rank_main(rank):
            comm = world.comm(rank)
            tile = decompose(g, 2)[rank]
            f = Field(tile, 8)
            HaloExchanger(comm).exchange(f, depth=8)
            out.append(rank)

        ts = [threading.Thread(target=rank_main, args=(r,)) for r in (0, 1)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        assert len(out) == 2

    benchmark(run)


def test_coefficient_build(benchmark):
    from repro.mesh import HaloExchanger
    from repro.physics import crooked_pipe, global_initial_state
    from repro.physics.state import build_coefficient_fields, build_fields

    g = Grid2D(N, N)
    density, energy, _ = global_initial_state(g, crooked_pipe())
    tile = decompose(g, 1)[0]
    fields = build_fields(tile, 1, density, energy)
    ex = HaloExchanger(SerialComm())
    benchmark(build_coefficient_fields, fields["density"], 1.0, 1.0, ex)
