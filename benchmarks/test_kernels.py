"""Microbenchmarks of the computational kernels (Listing 1 and friends).

These are the building blocks whose byte-per-cell costs parameterise the
performance model; benchmarking them documents the achieved bandwidth of
every registered :mod:`repro.kernels` backend.  The stencil/BLAS-1 cases
parametrize over :func:`repro.kernels.available_backends`; ``numpy`` is
the compiled baseline wherever the machine has a C compiler
(:func:`repro.kernels.baseline_bodies` says which bodies were timed).

The pinned ledger of record is ``repro bench`` (``make bench``, writing
``BENCH_<n>.json``); this pytest-benchmark suite is the interactive
companion for quick A/B runs when the plugin is installed.
"""

import numpy as np
import pytest

from repro.comm import SerialComm
from repro.kernels import available_backends, get_backend
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

BACKENDS = list(available_backends())


@pytest.fixture(scope="module")
def op():
    g, kx, ky, _ = crooked_pipe_system(N)
    tile = decompose(g, 1)[0]
    return StencilOperator2D.from_global_faces(tile, 1, kx, ky, SerialComm())


@pytest.fixture(scope="module")
def vec(op):
    rng = np.random.default_rng(7)
    return Field.from_global(op.tile, 1, rng.standard_normal((N, N)))


@pytest.fixture(scope="module", params=BACKENDS)
def routed_op(request, op):
    """The serial operator routed through each registered kernel backend."""
    return op.with_kernels(request.param)


def test_matvec(benchmark, routed_op, vec):
    """w = A p: the paper's Listing 1 kernel, per kernel backend."""
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


@pytest.mark.parametrize("backend", BACKENDS)
def test_axpy(benchmark, backend, vec):
    """y += alpha x on the interior view, per kernel backend."""
    k = get_backend(backend)
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
    bounds = EigenBounds(1.0, 50.0)

    def one_step():
        rr = vec.copy()
        x = op.new_field()
        ChebyshevIteration(op, rr, x, bounds).run(1)

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
