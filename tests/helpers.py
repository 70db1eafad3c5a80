"""Shared construction helpers for the test-suite.

These now live in the public :mod:`repro.testing` module (so downstream
users get the same scaffolding); this module re-exports them for the
test-suite's imports.
"""

from repro.testing import (  # noqa: F401
    crooked_duct_system,
    crooked_pipe_jump_system,
    crooked_pipe_system,
    distributed_solve,
    random_spd_faces,
    reference_solution,
    serial_operator,
)

import hashlib
import math
import struct
from itertools import product

import numpy as np

from repro.comm import SerialComm, launch_spmd
from repro.mesh import (Field, Grid2D, Grid3D, HaloExchanger, choose_factors,
                        decompose)
from repro.physics import face_coefficients
from repro.physics.state import build_coefficient_fields
from repro.solvers import SolverOptions, StencilOperator
from repro.solvers.ranks import instrumented_stack, solve_on_ranks


def counted_solve(n, size=1, **options):
    """The ``n``^2 crooked-pipe first step through the rank program on the
    counting stack: ``run.result``, ``run.events`` (rank 0's log)."""
    grid, *faces, bg = crooked_pipe_system(n)
    return solve_on_ranks(grid, faces, bg, SolverOptions(**options), size,
                          stack=instrumented_stack)


def history_sha(history) -> str:
    """Short sha256 of a residual history's exact float64 bit patterns."""
    return hashlib.sha256(
        b"".join(struct.pack("<d", h) for h in history)).hexdigest()[:16]


def bits(a):
    """``a``'s cells as unsigned integers: equality of these is equality
    of bit patterns (NaN payloads and the sign of zero included)."""
    return a.view(f"u{a.itemsize}")


def grid_of(shape):
    """The grid whose cell arrays have ``shape``, 2-D or 3-D."""
    return (Grid2D, Grid3D)[len(shape) - 2](*shape[::-1])


def check_factors_optimal(nranks, *extents):
    """``choose_factors`` multiplies to ``nranks`` and no other layout of
    the ``extents`` mesh, 2-D or 3-D, cuts fewer cell faces."""
    def cut(factors):
        return sum((p - 1) * (math.prod(extents) // n)
                   for p, n in zip(factors, extents))

    chosen = choose_factors(nranks, *extents)
    assert math.prod(chosen) == nranks
    for other in product(range(1, nranks + 1), repeat=len(extents)):
        assert math.prod(other) != nranks or cut(chosen) <= cut(other)


def system_3d(n=12, seed=3, rx=0.5):
    """A random SPD 7-point system on an ``n``^3 grid: ``(grid, (kx, ky,
    kz), b, direct solution)``."""
    rng = np.random.default_rng(seed)
    g = Grid3D(n, n, n)
    faces = face_coefficients(rng.uniform(0.2, 5.0, g.shape), rx, rx, rx)
    bg = rng.standard_normal(g.shape)
    return g, faces, bg, reference_solution(*faces, bg)


def _grown(tile, ext):
    """The global-array slices of ``tile`` grown by ``ext`` per side."""
    return tuple(slice(lo - ext[low], hi + ext[high])
                 for lo, hi, (low, high) in zip(tile.lo, tile.hi, tile.sides))


def check_exchange_fills_ghosts(exchanger_cls, grid, size, depth, halo=None,
                                factors=None, **exchanger_kw):
    """On ``size`` ranks, one depth-``depth`` exchange of ``exchanger_cls``
    leaves every ghost cell within ``depth`` of a neighbour — faces, edges,
    corners — equal to the global array there, on every rank."""
    glob = np.random.default_rng(10 * size + depth).standard_normal(grid.shape)

    def rank_main(comm):
        t = decompose(grid, comm.size, factors)[comm.rank]
        f = Field.from_global(t, halo or depth, glob)
        exchanger_cls(comm, **exchanger_kw).exchange(f, depth=depth)
        ext = t.extension(depth)
        assert np.array_equal(f.data[f.region(ext)], glob[_grown(t, ext)]), \
            comm.rank
        return True

    assert all(launch_spmd(rank_main, size))


def check_matvec(grid, faces, x, size=1, ext=0, factors=None):
    """On ``size`` ranks the matrix-free ``A x`` — computed on each tile's
    interior grown by ``ext`` cells toward its neighbours — equals the
    assembled sparse matrix's, in 2-D and 3-D."""
    want = (StencilOperator.assemble_sparse(*faces)
            @ x.ravel()).reshape(grid.shape)

    def rank_main(comm):
        t = decompose(grid, comm.size, factors)[comm.rank]
        op = StencilOperator.from_global_faces(t, ext + 1, *faces, comm)
        p, w = Field.from_global(t, ext + 1, x), op.new_field()
        op.exchanger.exchange(p, depth=ext + 1)
        op.apply_noexchange(p, w, ext=ext)
        grown = t.extension(ext)
        assert np.allclose(w.data[w.region(grown)], want[_grown(t, grown)],
                           rtol=1e-12, atol=1e-11), comm.rank
        return True

    assert all(launch_spmd(rank_main, size))


def check_coefficient_fields(grid, density, ratios, faces_global, sizes):
    """On every rank of each world size, ``build_coefficient_fields`` of
    the rank's density equals the global face arrays on every face of its
    tile (per axis: one face more than it has cells)."""
    def rank_main(comm):
        t = decompose(grid, comm.size)[comm.rank]
        local = build_coefficient_fields(Field.from_global(t, 2, density),
                                         *ratios, HaloExchanger(comm))
        for axis, k, kg in zip(reversed(range(t.ndim)), local, faces_global):
            got = k.data[tuple(slice(2, 2 + n + (a == axis))
                               for a, n in enumerate(t.shape))]
            want = kg[tuple(slice(lo, hi + (a == axis))
                            for a, (lo, hi) in enumerate(zip(t.lo, t.hi)))]
            assert np.allclose(got, want, rtol=1e-12), (comm.rank, axis)
        return True

    for size in sizes:
        assert all(launch_spmd(rank_main, size))


class ScriptedComm(SerialComm):
    """Serial comm applying ``script[k]`` to the k-th allreduce result
    (1-based): a deterministic way to corrupt one named reduction."""

    def __init__(self, script):
        self.script, self.calls = script, 0

    def allreduce(self, value, op="sum"):
        self.calls += 1
        out = super().allreduce(value, op)
        fn = self.script.get(self.calls)
        return out if fn is None else fn(out)


def scripted_system(script=None, n=16):
    """The serial ``n``^2 crooked pipe on a :class:`ScriptedComm`:
    ``(op, b)``."""
    g, kx, ky, bg = crooked_pipe_system(n)
    op = StencilOperator.from_global_faces(
        serial_operator(g, kx, ky).tile, 1, kx, ky, ScriptedComm(script or {}))
    return op, Field.from_global(op.tile, 1, bg)
