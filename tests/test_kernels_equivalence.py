"""Kernel-equivalence battery: the ``numpy`` backend vs its oracle.

The numerical policy under test (``docs/kernels.md``, ``repro.kernels.base``):

- **fp-order-preserving kernels** (``stencil_apply``, ``axpy``, the field
  updates of ``apply_axpy_dot``, the bound Chebyshev step, CG's bound
  bodies, ``pack_halo``/``unpack_halo``) must match
  the oracle **bit for bit** for every dtype, shape and halo depth;
- **reductions** (``dot``, ``norm``, the scalars of ``apply_dot`` /
  ``apply_axpy_dot``, the bound ``cg_update``'s ``<r, r>``) are the
  reference order ``reference_dot``, bit for bit.

Both halves run over a dtype x mesh-shape x halo-depth grid — 2-D and
3-D shapes in one battery, including 1-cell-wide tiles, non-square
regions and multi-block shapes large enough to force the blocked bodies
through several blocks.

The baseline itself is blocked and allocation-free; what defines its bit
patterns is the whole-array one-liner it replaced, kept here — written
over the axes, so it is the 5-point and the 7-point expression — as the
test-only :class:`OracleBackend`, whose reductions state the reference
order lane by lane.  The ``numpy`` backend must match it
**exactly** — fields and reductions — kernel by kernel and over full
solves, and a steady-state CG iteration on it must allocate no array.
Two classes go by that name — the NumPy replay and, where the machine has
a C compiler, the compiled loops of ``bodies.c`` — and every ``numpy``
case below runs both: in one case (:func:`_instances`), or one per case
(:data:`BACKENDS`).  Over the grid and over full solves the replay is
also held against the compiled loops directly, bit for bit.  Seeded
mutants of the C source and of its build flags must die on the same
battery.
"""

import ctypes
import hashlib
import math
import tracemalloc

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.kernels import (
    DEFAULT_BACKEND,
    CompiledBackend,
    KernelBackend,
    NumpyBackend,
    baseline_bodies,
    compiled,
    get_backend,
)
from repro.comm.serial import SerialComm
from repro.kernels.base import LANES, reference_dot
from repro.kernels.numpy_backend import _PROD, _block_rows, _operands
from repro.mesh import Field, decompose
from repro.resilience import SolverCheckpointStore, SolverGuard
from repro.solvers import Defences, SolverOptions, cg_solve, solve_linear
from repro.solvers.cg import CGState
from repro.solvers.chebyshev import ChebyshevIteration
from repro.solvers.eigen import EigenBounds
from repro.solvers.operator import StencilOperator
from repro.solvers.ppcg import ppcg_solve
from repro.solvers.preconditioners import make_local_preconditioner
from repro.solvers.ranks import solve_on_ranks
from repro.testing import crooked_pipe_system, serial_operator
from repro.utils.errors import ConfigurationError

from tests.helpers import (bits, check_exchange_fills_ghosts,
                           crooked_duct_system, grid_of, scripted_system)

#: The paths a backend-parametrized case runs, one per case: ``numpy``
#: is what the registry builds here (the compiled loops where the machine
#: has a C compiler), ``replay`` the pure NumPy replay, so the
#: no-compiler path is exercised wherever the compiled one is.  The
#: replay's cases run under the id ``fused``, that of the deleted backend
#: whose slot they took, so that no case changed its name.
BACKENDS = [DEFAULT_BACKEND, pytest.param("replay", id="fused")]


def _path(name):
    """A fresh backend of path ``name`` (:data:`BACKENDS`)."""
    return NumpyBackend() if name == "replay" else get_backend(name)


def _instances(name):
    """Fresh backends for registry name ``name`` — both classes that go
    by it: the NumPy replay and, where this machine builds them, the
    compiled loops (``get_backend`` alone would test only one)."""
    assert name == DEFAULT_BACKEND
    both = [NumpyBackend()]
    if baseline_bodies()[0] == "compiled":
        both.append(CompiledBackend())
    return both

#: Interior shapes, 2-D then 3-D: square, non-square both ways,
#: 1-cell-wide tiles along each axis, and per dimension one shape whose
#: working set exceeds the 1 MiB block budget (so the multi-block path is
#: exercised, not just the single-block fast path).
SHAPES = [(13, 7), (7, 13), (1, 9), (9, 1), (257, 129),
          (5, 6, 7), (1, 4, 9), (6, 1, 5), (7, 3, 1), (24, 40, 36)]
HALOS = [1, 2, 3]
DTYPES = ["float32", "float64"]


def _name(shape):
    return "x".join(map(str, shape))


def _system(shape, halo, dtype):
    """Random padded arrays ``(faces, p, y)`` for one kernel-level case,
    ``faces`` being ``(kx, ky[, kz])``."""
    rng = np.random.default_rng(
        20170905 + halo + sum(10 * 100 ** i * n
                              for i, n in enumerate(reversed(shape))))
    dt = np.dtype(dtype)
    pad = tuple(n + 2 * halo for n in shape)
    faces = tuple(rng.uniform(0.1, 2.0, size=pad).astype(dt) for _ in shape)
    p = rng.standard_normal(pad).astype(dt)
    y = rng.standard_normal(pad).astype(dt)
    return faces, p, y


def _bounds(shape, halo, ext):
    """The loop bounds — ``lo, hi`` per axis — of the interior grown by
    ``ext`` cells on every side."""
    return tuple(b for n in shape for b in (halo - ext, halo + n + ext))


def _window(bounds, axis=None, shift=0):
    """The slices of ``bounds``, moved by ``shift`` cells along ``axis``."""
    return tuple(slice(lo + shift * (a == axis), hi + shift * (a == axis))
                 for a, (lo, hi) in enumerate(zip(bounds[::2], bounds[1::2])))


def _bound_sets(shape, halo):
    """Loop-bound tuples to cover: the interior, and (when the halo is
    deep enough) the grown region a matrix-powers step computes."""
    return [_bounds(shape, halo, ext) for ext in {0, halo - 1}]


def _all_bound_sets(shape, halo):
    """The interior and every extended region the halo allows."""
    return [_bounds(shape, halo, ext) for ext in range(halo)]


#: The backend the grid holds the replay against: what ``get_backend``
#: builds here.
BASELINE = get_backend("numpy")

#: The grid's second path, the pure NumPy replay (:data:`BACKENDS`).
OTHERS = BACKENDS[1:]

GRID = [pytest.param(shape, halo, dtype, id=f"{_name(shape)}-h{halo}-{dtype}")
        for shape in SHAPES for halo in HALOS for dtype in DTYPES]


@pytest.mark.parametrize("backend", OTHERS)
@pytest.mark.parametrize("shape,halo,dtype", GRID)
class TestKernelGrid:
    """Differential battery over the dtype x shape x halo grid: the
    replay against the baseline, fields and reductions alike bit for
    bit — both sum ``reference_dot``'s lanes, so the reductions' bound
    is none."""

    def test_stencil_apply_bitwise(self, shape, halo, dtype, backend):
        faces, p, _ = _system(shape, halo, dtype)
        k = _path(backend)
        for bounds in _bound_sets(shape, halo):
            ref, out = np.zeros_like(p), np.zeros_like(p)
            BASELINE.stencil_apply(*faces, p, ref, *bounds)
            k.stencil_apply(*faces, p, out, *bounds)
            assert out.dtype == ref.dtype
            assert np.array_equal(bits(out), bits(ref)), \
                f"stencil_apply[{backend}] drifted from baseline bits"

    def test_apply_dot_field_bitwise_scalar_bounded(self, shape, halo,
                                                    dtype, backend):
        faces, p, _ = _system(shape, halo, dtype)
        k = _path(backend)
        for bounds in _bound_sets(shape, halo):
            ref, out = np.zeros_like(p), np.zeros_like(p)
            d_ref = BASELINE.apply_dot(*faces, p, ref, *bounds)
            d = k.apply_dot(*faces, p, out, *bounds)
            assert np.array_equal(bits(out), bits(ref))
            assert _same(d, d_ref), \
                f"apply_dot[{backend}] scalar drifted from baseline bits"

    def test_apply_axpy_dot_updates_bitwise_scalar_bounded(
            self, shape, halo, dtype, backend):
        faces, p, y = _system(shape, halo, dtype)
        k = _path(backend)
        alpha = -1.0  # the Jacobi residual chain: y = b - A p
        for bounds in _bound_sets(shape, halo):
            ref_out, ref_y = np.zeros_like(p), y.copy()
            out, yw = np.zeros_like(p), y.copy()
            d_ref = BASELINE.apply_axpy_dot(*faces, p, ref_out, ref_y,
                                            alpha, *bounds)
            d = k.apply_axpy_dot(*faces, p, out, yw, alpha, *bounds)
            assert np.array_equal(bits(out), bits(ref_out))
            assert np.array_equal(bits(yw), bits(ref_y)), \
                f"apply_axpy_dot[{backend}] y-update drifted from baseline"
            assert _same(d, d_ref)

    def test_dot_within_reduction_bound(self, shape, halo, dtype, backend):
        _, p, y = _system(shape, halo, dtype)
        interior = _window(_bounds(shape, halo, 0))
        a, b = p[interior], y[interior]
        assert _same(_path(backend).dot(a, b), BASELINE.dot(a, b))

    def test_norm_within_reduction_bound(self, shape, halo, dtype, backend):
        _, p, _ = _system(shape, halo, dtype)
        a = p[_window(_bounds(shape, halo, 0))]
        assert _same(_path(backend).norm(a), BASELINE.norm(a))

    def test_axpy_bitwise(self, shape, halo, dtype, backend):
        _, p, y = _system(shape, halo, dtype)
        interior = _window(_bounds(shape, halo, 0))
        k = _path(backend)
        for alpha in (0.75, -0.75, 1.0, -1.0):
            ref = y.copy()
            yw = y.copy()
            BASELINE.axpy(ref[interior], alpha, p[interior])
            k.axpy(yw[interior], alpha, p[interior])
            assert np.array_equal(bits(yw), bits(ref)), \
                f"axpy[{backend}] alpha={alpha} drifted from baseline bits"

    def test_pack_unpack_halo_bitwise(self, shape, halo, dtype, backend):
        _, p, y = _system(shape, halo, dtype)
        k = _path(backend)
        # Every strip a halo exchange packs: a low and a high band of
        # each axis over the interior of the others.
        interior = _window(_bounds(shape, halo, 0))
        faces = [(*interior[:axis], band, *interior[axis + 1:])
                 for axis, n in enumerate(shape)
                 for band in (slice(halo, 2 * halo), slice(n, n + halo))]
        for region in faces:
            ref = BASELINE.pack_halo(p, *region)
            buf = k.pack_halo(p, *region)
            assert buf.flags["C_CONTIGUOUS"]
            assert buf.dtype == ref.dtype
            assert np.array_equal(bits(buf), bits(ref))
            a_ref, a = y.copy(), y.copy()
            BASELINE.unpack_halo(a_ref, *region, ref)
            k.unpack_halo(a, *region, buf)
            assert np.array_equal(bits(a), bits(a_ref))


# -- the baseline against the whole-array oracle it replaced ---------------------


def _lane_dot(a, b):
    """The reference reduction stated lane by lane: the products in C
    order, each lane a ``cumsum`` (strictly in sequence) from a ``+0.0``
    put in front of its products, the lanes combined pairwise — all in
    the operands' dtype."""
    with np.errstate(over="ignore", invalid="ignore"):
        prod = (a * b).ravel()
        zero = np.zeros(1, prod.dtype)
        s = [np.cumsum(np.concatenate((zero, prod[lane::8])))[-1]
             for lane in range(8)]
        return float(((s[0] + s[1]) + (s[2] + s[3]))
                     + ((s[4] + s[5]) + (s[6] + s[7])))


def _same(x, y):
    """Two reductions are one value: the same bits, NaNs alike."""
    return (math.isnan(x) and math.isnan(y)) or (
        x == y and math.copysign(1.0, x) == math.copysign(1.0, y))


class OracleBackend(KernelBackend):
    """The pre-blocking ``numpy`` backend: whole-array expressions, a
    temporary per term — the 5-point one-liner written over the axes, so
    the 7-point one too — and the reference reduction lane by lane.

    Test-only.
    """

    name = "numpy"

    def stencil_apply(self, *args):
        faces, p, out, _, bounds = _operands(args)
        c = _window(bounds)
        # Slowest axis first, high face before low: kz, ky, kx in 3-D.
        terms = [(k[_window(bounds, axis, +1)], k[c], axis)
                 for axis, k in enumerate(reversed(faces))]
        diag = 1.0
        for k_hi, k_lo, _ in terms:
            diag = diag + k_hi + k_lo
        acc = diag * p[c]
        for k_hi, k_lo, axis in terms:
            acc = (acc - k_hi * p[_window(bounds, axis, +1)]
                   - k_lo * p[_window(bounds, axis, -1)])
        out[c] = acc

    def apply_dot(self, *args):
        self.stencil_apply(*args)
        _, p, out, _, bounds = _operands(args)
        c = _window(bounds)
        return _lane_dot(p[c], out[c])

    def apply_axpy_dot(self, *args):
        faces, p, out, (y, alpha), bounds = _operands(args, 2)
        self.stencil_apply(*faces, p, out, *bounds)
        yr = y[_window(bounds)]
        yr += alpha * out[_window(bounds)]
        return _lane_dot(yr, yr)

    def dot(self, a, b):
        return _lane_dot(a, b)

    def axpy(self, y, alpha, x):
        y += alpha * x


ORACLE = OracleBackend()

#: The battery's shapes plus one of >= 512 rows that every blocked kernel
#: walks in several blocks (8 for the float64 stencil).
ORACLE_SHAPES = SHAPES + [(520, 300)]


@pytest.mark.parametrize("frozen", [False, True], ids=["writeable", "frozen"])
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("halo", HALOS)
@pytest.mark.parametrize("shape", ORACLE_SHAPES,
                         ids=[_name(shape) for shape in ORACLE_SHAPES])
def test_baseline_bit_identical_to_oracle(shape, halo, dtype, frozen):
    """One backend instance, every region in turn (so workspace, the
    cached diagonal and the memoised geometry are reused across extents),
    every kernel exact."""
    faces, p, y = _system(shape, halo, dtype)
    for coeff in faces:
        coeff.flags.writeable = not frozen
    for k in _instances("numpy"):
        for bounds in _all_bound_sets(shape, halo) * 2:
            region = _window(bounds)
            ref, out = np.zeros_like(p), np.zeros_like(p)
            ORACLE.stencil_apply(*faces, p, ref, *bounds)
            k.stencil_apply(*faces, p, out, *bounds)
            assert out.dtype == ref.dtype and np.array_equal(out, ref)

            ref, out = np.zeros_like(p), np.zeros_like(p)
            assert (k.apply_dot(*faces, p, out, *bounds)
                    == ORACLE.apply_dot(*faces, p, ref, *bounds))
            assert np.array_equal(out, ref)

            ref, out = np.zeros_like(p), np.zeros_like(p)
            ref_y, yw = y.copy(), y.copy()
            assert (k.apply_axpy_dot(*faces, p, out, yw, -0.75, *bounds)
                    == ORACLE.apply_axpy_dot(*faces, p, ref, ref_y, -0.75,
                                             *bounds))
            assert np.array_equal(out, ref) and np.array_equal(yw, ref_y)

            a, b = p[region], y[region]
            assert k.dot(a, b) == ORACLE.dot(a, b)
            assert k.dot(a, a) == ORACLE.dot(a, a)
            assert k.norm(a) == float(np.sqrt(ORACLE.dot(a, a)))
            ref_y, yw = y.copy(), y.copy()
            ORACLE.axpy(ref_y[region], 0.375, a)
            k.axpy(yw[region], 0.375, a)
            assert np.array_equal(yw, ref_y)


# -- contiguous spans: nothing outside the region ever changes -------------------
#
# The baseline's passes run over 1-D spans of the padded buffers, halo
# cells between two region rows (and planes) included, and
# ``Field.axpy``/``aypx`` update such a span in place.  The invariant that
# makes that legal: every cell outside the region keeps its *bits* —
# whatever a stale halo holds — and the region equals the whole-array
# oracle exactly.

SPAN_SHAPES = [(9, 1), (1, 9), (13, 7), (520, 300),
               (4, 1, 6), (5, 6, 7), (24, 40, 36)]
SPAN_HALOS = [1, 2, 3, 4]
SPAN_IDS = [_name(shape) for shape in SPAN_SHAPES]


def _poison(a, keep):
    """``a`` with every cell outside the mask ``keep`` set, in turn, to
    NaN, +inf, -inf, -0.0 and the dtype's largest finite value."""
    vals = np.array([np.nan, np.inf, -np.inf, -0.0, np.finfo(a.dtype).max],
                    dtype=a.dtype)
    where = np.flatnonzero(~keep.ravel())
    a.reshape(-1)[where] = vals[np.arange(where.size) % vals.size]
    return a


def _region_mask(shape, region):
    mask = np.zeros(shape, dtype=bool)
    mask[region] = True
    return mask


def _check_stencil_chains(k, shape, halo, dtype, frozen):
    """``out`` and ``y`` start as poison everywhere a chain may not
    write, ``p`` holds poison wherever the stencil does not read: after
    each chain of backend ``k`` every array and every reduction equals
    the oracle's bit for bit — so nothing outside the region moved."""
    faces, p, y = _system(shape, halo, dtype)
    for coeff in faces:
        coeff.flags.writeable = not frozen
    for bounds in _all_bound_sets(shape, halo):
        c = _window(bounds)
        region = _region_mask(p.shape, c)
        read = region.copy()
        for axis in range(len(shape)):
            for shift in (-1, +1):
                read[_window(bounds, axis, shift)] = True
        pp = _poison(p.copy(), read)
        blank = _poison(np.zeros_like(p), np.zeros_like(region))
        yp = _poison(y.copy(), region)

        ref, out = blank.copy(), blank.copy()
        ORACLE.stencil_apply(*faces, pp, ref, *bounds)
        k.stencil_apply(*faces, pp, out, *bounds)
        assert np.array_equal(bits(out), bits(ref))

        ref, out = blank.copy(), blank.copy()
        d_ref = ORACLE.apply_dot(*faces, pp, ref, *bounds)
        d = k.apply_dot(*faces, pp, out, *bounds)
        assert np.array_equal(bits(out), bits(ref))
        assert _same(d, d_ref)

        ref, out = blank.copy(), blank.copy()
        ref_y, yw = yp.copy(), yp.copy()
        d_ref = ORACLE.apply_axpy_dot(*faces, pp, ref, ref_y, -0.75, *bounds)
        d = k.apply_axpy_dot(*faces, pp, out, yw, -0.75, *bounds)
        assert np.array_equal(bits(out), bits(ref))
        assert np.array_equal(bits(yw), bits(ref_y))
        assert _same(d, d_ref)
        assert np.array_equal(bits(pp), bits(_poison(p.copy(), read)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("frozen", [False, True], ids=["writeable", "frozen"])
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("halo", SPAN_HALOS)
@pytest.mark.parametrize("shape", SPAN_SHAPES, ids=SPAN_IDS)
def test_stencil_chains_write_only_the_region(shape, halo, dtype, frozen,
                                              backend):
    """Every region the halo allows, nothing warned on the way."""
    _check_stencil_chains(_path(backend), shape, halo, dtype, frozen)


def _check_layouts_rejected(k, shape, layout, dtype, frozen):
    """Operands that do not share one C-contiguous padded shape —
    ``staggered`` coefficients one face larger than ``p`` along their
    axis, a ``windowed`` ``p`` cut out of a wider buffer — raise
    ``ConfigurationError`` from every chain, and nothing is written."""
    faces, p, y = _system(shape, 3, dtype)
    if layout == "staggered":
        faces = tuple(np.pad(coeff, [(0, a == axis) for a in range(p.ndim)])
                      for axis, coeff in zip(reversed(range(p.ndim)), faces))
    else:
        wide = np.zeros((*p.shape[:-1], p.shape[-1] + 3), dtype=p.dtype)
        wide[..., :p.shape[-1]] = p
        p = wide[..., :p.shape[-1]]
    for coeff in faces:
        coeff.flags.writeable = not frozen
    bounds = _bounds(shape, 3, 1)
    blank = _poison(np.zeros_like(y), np.zeros(y.shape, dtype=bool))
    out, yw = blank.copy(), y.copy()
    for chain, extra in ((k.stencil_apply, ()), (k.apply_dot, ()),
                         (k.apply_axpy_dot, (yw, -0.75))):
        try:
            chain(*faces, p, out, *extra, *bounds)
        except ConfigurationError as exc:
            assert "C-contiguous" in str(exc)
        else:
            raise AssertionError(f"{layout} operands were computed on")
    assert np.array_equal(bits(out), bits(blank))
    assert np.array_equal(bits(yw), bits(y))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("frozen", [False, True], ids=["writeable", "frozen"])
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("layout", ["staggered", "windowed"])
@pytest.mark.parametrize("shape", SPAN_SHAPES[:5], ids=SPAN_IDS[:5])
def test_general_layouts_write_only_the_region(shape, layout, dtype, frozen,
                                               backend):
    """There is one stencil body and it walks spans: layouts it cannot
    walk are refused whole, so they write nothing at all."""
    _check_layouts_rejected(_path(backend), shape, layout, dtype, frozen)


def _span_tiles(shape):
    """Two tiles of interior ``shape``: the centre of a 3x3(x3)
    decomposition (``region(e)`` grows on every side) and its corner
    (on one side per axis)."""
    factors = (3,) * len(shape)
    tiles = decompose(grid_of(tuple(3 * n for n in shape)),
                      3 ** len(shape), factors=factors)
    return tiles[len(tiles) // 2], tiles[0]


def _check_field_updates(field_cls, k, shape, halo, dtype):
    """``axpy`` and ``aypx`` of ``field_cls`` on every region ``0..halo``
    of two poisoned fields: the updated buffer equals the whole-array
    expression on the region and its old bits everywhere else; the other
    operand is untouched."""
    rng = np.random.default_rng(7 * shape[-2] + shape[-1] + halo)
    for tile in _span_tiles(shape):
        pad = tuple(n + 2 * halo for n in shape)
        for ext in range(halo + 1):
            y, x = (field_cls(tile, halo,
                              rng.standard_normal(pad).astype(dtype))
                    for _ in range(2))
            region = y.region(ext)
            keep = _region_mask(pad, region)
            _poison(y.data, keep), _poison(x.data, keep)
            x_before = x.data.copy()

            ref = y.data.copy()
            ORACLE.axpy(ref[region], 0.375, x.data[region])
            y.axpy(0.375, x, k, ext)
            assert np.array_equal(bits(y.data), bits(ref))

            cells = ref[region]
            cells *= -0.75
            cells += x.data[region]
            y.aypx(-0.75, x, k, ext)
            assert np.array_equal(bits(y.data), bits(ref))
            assert np.array_equal(bits(x.data), bits(x_before))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("backend", [*BACKENDS, "oracle"])
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("halo", SPAN_HALOS)
@pytest.mark.parametrize("shape", SPAN_SHAPES, ids=SPAN_IDS)
def test_field_updates_write_only_the_region(shape, halo, dtype, backend):
    """Through either backend and the whole-array oracle, warning-free."""
    k = ORACLE if backend == "oracle" else _path(backend)
    _check_field_updates(Field, k, shape, halo, dtype)


# -- the Chebyshev inner step: one call, the bits of its separate passes ---------

CHEBY_SHAPES = [(13, 7), (9, 1), (5, 6, 7), (1, 4, 9)]


class _Ghosts:
    """The exchanger of a tile taken out of its world: ghosts keep what
    they hold."""

    events = tracer = None

    def exchange(self, fields, depth):
        pass


def _inner_step(k, tile, halo, faces, arrays, depth, ext, inner):
    """``ChebyshevIteration._step_extended`` once, at extension ``ext`` of
    a depth-``depth`` block, on an operator over ``tile`` routed through
    ``k``; ``arrays`` are the padded ``d, w, r, z``, updated in place."""
    d, w, r, z = (Field(tile, halo, a) for a in arrays)
    op = StencilOperator(**dict(zip(("kx", "ky", "kz"), (
        Field(tile, halo, f.copy()) for f in faces))), comm=SerialComm(),
        exchanger=_Ghosts(), kernels=k)
    it = ChebyshevIteration(op, r, z, EigenBounds(1.0, 40.0),
                            halo_depth=depth,
                            local_precond=make_local_preconditioner(op, inner))
    it.d, it.w = d, w
    it.steps_done, it._since_exchange = 1, depth - 1 - ext
    it._step_extended()


def _spy(k, log):
    """``k``, appending to ``log`` whether each step of a step it binds
    fits the bound body — False for each binding it refuses (one step is
    taken per binding here)."""
    bind = k.bind_chebyshev

    def spied(*args):
        bound = bind(*args)
        if bound is None:
            log.append(False)
        else:
            fits = bound.fits
            bound.fits = lambda *a: log.append(fits(*a)) or log[-1]
        return bound

    k.bind_chebyshev = spied
    return k


def _check_chebyshev_steps(kernels, shape, dtype, inner):
    """One inner step at every ``ext`` of depths 1 and 4, on a tile whose
    region grows on every side and on one where it grows on one side per
    axis, through each backend of ``kernels`` — one call of the step
    ``bind_chebyshev`` bound where it has the body (exactly when it is the
    compiled one), the separate passes where not — leaves every cell of
    ``d``, ``w``, ``r``
    and ``z`` with the bits the passes leave on the whole-array oracle,
    and every cell the step may not write untouched: ``d``, ``w`` and
    ``r`` outside the region, ``z`` outside the interior (poison, as is
    ``d`` beyond the stencil's ring)."""
    halo = 4
    faces, _, _ = _system(shape, halo, dtype)
    pad = faces[0].shape
    rng = np.random.default_rng(11 * len(shape) + shape[-1])
    logs = [[] for _ in kernels]
    kernels = [_spy(k, log) for k, log in zip(kernels, logs)]
    for tile in _span_tiles(shape):
        interior = _region_mask(pad, Field(tile, halo).region(0))
        for depth in (1, 4):
            for ext in range(depth):
                region = Field(tile, halo).region(ext)
                bounds = tuple(b for s in region for b in (s.start, s.stop))
                written = _region_mask(pad, region)
                read = written.copy()
                for axis in range(len(shape)):
                    for shift in (-1, +1):
                        read[_window(bounds, axis, shift)] = True
                start = [_poison(rng.standard_normal(pad).astype(dtype), keep)
                         for keep in (read, written, written, interior)]
                oracle = None
                for k in (ORACLE, *kernels):
                    arrays = [a.copy() for a in start]
                    _inner_step(k, tile, halo, faces, arrays, depth, ext,
                                inner)
                    for a, a0, keep in zip(arrays, start, (
                            written, written, written, interior)):
                        assert np.array_equal(bits(a[~keep]), bits(a0[~keep]))
                    oracle = oracle or arrays
                    for a, ref in zip(arrays, oracle):
                        assert np.array_equal(bits(a), bits(ref))
    for k, log in zip(kernels, logs):
        assert log and set(log) == {isinstance(k, CompiledBackend)}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("inner", ["none", "diagonal"])
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", CHEBY_SHAPES,
                         ids=[_name(shape) for shape in CHEBY_SHAPES])
def test_chebyshev_step_bit_identical_to_its_passes(shape, dtype, inner):
    """The compiled step and the NumPy replay's passes, warning-free."""
    _check_chebyshev_steps(_instances("numpy"), shape, dtype, inner)


def test_bound_chebyshev_binds_once_and_steps_in_one_body_call():
    """On a compiled build a 48^2 depth-4 ``ppcg`` solve binds its inner
    step once — one preconditioner, one binding across its applications
    — and then makes exactly ``inner_iterations`` step-body calls, none
    handed back to the separate passes.  Without this a silent fallback
    would pass every bits test above."""
    if baseline_bodies()[0] != "compiled":
        pytest.skip(baseline_bodies()[1])
    grid, kxg, kyg, bg = crooked_pipe_system(48)
    calls = Counter()

    def counted(name, call):
        return lambda *args, **kw: calls.update([name]) or call(*args, **kw)

    bodies = {key: counted(f"{key[0]}{key[1] or ''}", body)
              for key, body in compiled._process_bodies()[0].items()}
    k = CompiledBackend(bodies)
    binds, steps = [], []
    bind = k.bind_chebyshev

    def spied(*args):
        bound = bind(*args)
        binds.append(bound)
        fits = bound.fits
        bound.fits = lambda *a: steps.append(fits(*a)) or steps[-1]
        return bound

    k.bind_chebyshev = spied
    op = serial_operator(grid, kxg, kyg, halo=4).with_kernels(k)
    result = ppcg_solve(op, Field.from_global(op.tile, op.halo, bg),
                        eps=1e-8, max_iters=200, inner_steps=8,
                        halo_depth=4, warmup_iters=8)
    assert result.converged and result.iterations > 1
    assert len(binds) == 1 and binds[0] is not None
    assert len(steps) == result.inner_iterations and all(steps)
    assert calls["chebyshev_step2"] == result.inner_iterations


# -- CG's bound iteration: two bodies, the bits of the calls they replace -----


def _cg_iterations(k, faces, fields, ext):
    """Three CG iterations' local work on ``fields`` (``x, r, p, w, z``)
    over ``region(ext)`` and its ring ``region(ext + 1)`` through backend
    ``k``: a first matvec, then twice the residual update and the next
    matvec after ``x += alpha p`` and the direction on the ring, then a
    third residual update and ``x += alpha p`` and the direction on the
    region — in the bound bodies (two passes, then the two pending
    updates, as ``CGState.settle`` runs them) where
    ``k`` binds them, in the reference calls where not.  Returns what the
    reductions saw: ``<p, A p>``, and ``<r, r>`` when ``z`` is ``r``
    (else 0.0), in turn."""
    x, r, p, w, z = fields
    region, ring = x.region(ext), x.region(ext + 1)
    bounds, ring_bounds = (tuple(b for s in reg for b in (s.start, s.stop))
                           for reg in (region, ring))
    bound = k.bind_cg(faces, *(f.data for f in fields), bounds, ring_bounds)
    assert (bound is not None) == isinstance(k, CompiledBackend)
    if bound is None:
        seen = [k.apply_dot(*faces, p.data, w.data, *bounds)]
    else:
        seen = [bound.apply_dot()]
    for alpha, beta, last in ((0.375, -0.75, False), (-1.25, 0.5, False),
                              (0.625, -1.5, True)):
        if bound is None:
            r.axpy(-alpha, w, k, ext)
            seen.append(k.dot(r.data[region], r.data[region]) if z is r
                        else 0.0)
            x.axpy(alpha, p, k, ext)
            p.aypx(beta, z, k, ext + (not last))
            if not last:
                seen.append(k.apply_dot(*faces, p.data, w.data, *bounds))
        else:
            assert bound.fits(alpha) and bound.fits(beta)
            seen.append(bound.cg_residual(alpha))
            if last:
                bound.update_x(alpha)
                bound.update_p(beta)
            else:
                seen.append(bound.cg_pass(alpha, beta))
    return seen


def _check_cg_bodies(kernels, shape, dtype):
    """Three CG iterations (:func:`_cg_iterations`) at every extension of a
    tile whose ring grows on every side and of one where it grows on one
    side per axis, with ``z`` being ``r`` (``<r, r>`` rides the residual
    update) and not, through each backend of ``kernels`` — bound exactly
    when it is the compiled one —: every cell of every field and every
    reduction equal the whole-array oracle's through
    ``Field.axpy``/``aypx`` and its ``dot``, bit for bit, and every cell
    the bodies may not write keeps its poison (``x``, ``r`` and ``w``
    outside the region, ``p`` outside the ring, all of ``z``; ``p``
    beyond the stencil's and the ring's reach and ``z`` beyond the ring
    start as poison)."""
    halo = 2
    faces, _, _ = _system(shape, halo, dtype)
    pad = faces[0].shape
    rng = np.random.default_rng(13 * len(shape) + shape[-1])
    for tile in _span_tiles(shape):
        for ext in range(halo):
            region = Field(tile, halo).region(ext)
            bounds = tuple(b for s in region for b in (s.start, s.stop))
            written = _region_mask(pad, region)
            ring = _region_mask(pad, Field(tile, halo).region(ext + 1))
            nothing = np.zeros(pad, bool)
            read = written | ring
            for axis in range(len(shape)):
                for shift in (-1, +1):
                    read[_window(bounds, axis, shift)] = True
            for dot in (True, False):
                start = [_poison(rng.standard_normal(pad).astype(dtype), keep)
                         for keep in (written, ring if dot else written,
                                      read, written, ring)]
                if dot:
                    start[4] = start[1]
                oracle = None
                for k in (ORACLE, *kernels):
                    fields = [Field(tile, halo, a.copy()) for a in start[:4]]
                    fields.append(fields[1] if dot else
                                  Field(tile, halo, start[4].copy()))
                    seen = _cg_iterations(k, faces, fields, ext)
                    for f, a0, keep in zip(fields, start, (
                            written, written, ring, written,
                            written if dot else nothing)):
                        assert np.array_equal(bits(f.data[~keep]),
                                              bits(a0[~keep]))
                    oracle = oracle or (seen, [f.data for f in fields])
                    assert all(map(_same, seen, oracle[0]))
                    for f, ref in zip(fields, oracle[1]):
                        assert np.array_equal(bits(f.data), bits(ref))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", CHEBY_SHAPES,
                         ids=[_name(shape) for shape in CHEBY_SHAPES])
def test_cg_bodies_bit_identical_to_their_calls(shape, dtype):
    """The compiled loops, bound, and the NumPy replay's calls."""
    _check_cg_bodies(_instances("numpy"), shape, dtype)


def test_cg_calls_the_bodies_cannot_take_are_the_reference_calls():
    """``bind_cg`` binds nothing where ``x`` is ``p`` or a written field is
    read-only; the bound bodies do not take a NumPy scalar, or a Python
    float no float32 holds, beside float32 fields (``fits`` is False), and
    the step then makes the reference calls — applying first what a
    fitting ``alpha`` left pending — with their bits."""
    if baseline_bodies()[0] != "compiled":
        pytest.skip(baseline_bodies()[1])
    shape, halo = (13, 7), 1
    faces, _, _ = _system(shape, halo, "float32")
    rng = np.random.default_rng(31)
    tile = _span_tiles(shape)[0]
    start = [rng.standard_normal(faces[0].shape).astype("f") for _ in range(5)]
    k, bounds = CompiledBackend(), _bounds(shape, halo, 0)
    ring = _bounds(shape, halo, 1)
    x, r, p, w, z = (a.copy() for a in start)
    frozen = x.copy()
    frozen.flags.writeable = False
    assert k.bind_cg(faces, p, r, p, w, z, bounds, ring) is None
    assert k.bind_cg(faces, frozen, r, p, w, z, bounds, ring) is None
    bound = k.bind_cg(faces, x, r, p, w, z, bounds, ring)
    scalars = (np.float64(1 / 3), np.float32(0.5), 1e39)
    assert bound.fits(0.5) and not any(map(bound.fits, scalars))

    op = StencilOperator(**dict(zip(("kx", "ky"), (
        Field(tile, halo, f.copy()) for f in faces))), comm=SerialComm(),
        exchanger=_Ghosts(), kernels=k)
    state = CGState(op, make_local_preconditioner(op, "diagonal"),
                    op.new_field(), op.tracer, "cg")
    ref = {name: Field(tile, halo, a.copy())
           for name, a in zip("xrpwz", start)}
    for name, a in zip("xrpwz", start):
        getattr(state, name).data[...] = a
    step = op.bind_cg(state)
    assert step.bound is not None
    for first, second in ((scalars[0], 0.25), (0.5, scalars[1]),
                          (scalars[2], scalars[2])):
        assert step.update(first) is None
        step.direction(second)
        ref["x"].axpy(first, ref["p"], k)
        ref["r"].axpy(-first, ref["w"], k)
        ref["p"].aypx(second, ref["z"], k)
        assert state.pending_alpha is state.pending_beta is None
    assert all(np.array_equal(bits(getattr(state, name).data),
                              bits(ref[name].data)) for name in "xrpwz")


def test_bound_cg_iteration_is_three_body_calls():
    """On a compiled build, once ``cg_solve`` has bound its step, an
    iteration is two body calls — the residual update (with ``<r, r>``
    for the identity), then the pass that applies ``x += alpha p`` and
    the direction on its way through the stencil with ``<p, A p>`` — and
    no ``_chain``/``_plan`` check: the difference between a 20- and a
    10-iteration solve, with and without a preconditioner (whose ``<r,
    z>`` and ``<r, r>`` are two ``dot`` bodies on the interiors).
    Without this a silent fallback would pass every bits test above."""
    if baseline_bodies()[0] != "compiled":
        pytest.skip(baseline_bodies()[1])
    grid, kxg, kyg, bg = crooked_pipe_system(32)
    calls = Counter()

    def counted(name, call):
        return lambda *args, **kw: calls.update([name]) or call(*args, **kw)

    bodies = {key: counted(f"{key[0]}{key[1] or ''}", body)
              for key, body in compiled._process_bodies()[0].items()}
    for inner in ("none", "diagonal"):
        per_solve = []
        for iterations in (10, 20):
            k = CompiledBackend(bodies)
            k._chain, k._plan = (counted(name, getattr(k, name))
                                 for name in ("_chain", "_plan"))
            op = serial_operator(grid, kxg, kyg).with_kernels(k)
            b = Field.from_global(op.tile, op.halo, bg)
            calls.clear()
            cg_solve(op, b, eps=1e-30, max_iters=iterations,
                     preconditioner=make_local_preconditioner(op, inner))
            per_solve.append(Counter(calls))
        per_solve[1].subtract(per_solve[0])
        dots = {"dot2": 20} if inner == "diagonal" else {}
        assert +per_solve[1] == {"cg_pass2": 10, "cg_residual2": 10,
                                 **dots}, inner


class _Regrow:
    """A cancel token that regrows a backend's product workspace at one
    iteration boundary, as a call on a larger region would."""

    def __init__(self, k, iteration):
        self.k, self.iteration, self.fired = k, iteration, 0

    def check(self, iteration):
        if iteration == self.iteration:
            self.k._buf(_PROD, (1 << 14,), np.dtype("float64"))
            self.fired += 1


def _rewritten_cg(k, rewrite, tmp_path):
    """The 16^2 pipe's CG through backend ``k``, with its fields or its
    workspace rewritten in place mid-solve by ``rewrite``: the solution's
    bytes, the history, whether each bound step was bound, and a count
    that the rewrite happened."""
    op, b = scripted_system({16: lambda out: float("nan")}
                            if rewrite == "rollback" else {})
    op = op.with_kernels(k)
    steps, bind = [], op.bind_cg
    op.bind_cg = lambda state: steps.append(bind(state)) or steps[-1]
    guard, resume = SolverGuard(checkpoint_interval=5), None
    defences = Defences(guard=guard)
    if rewrite == "splice":      # with the ABFT replay's true residual in w
        defences = replace(defences, abft_interval=3, replace_interval=10,
                           replace_tolerance=1e-15)
    elif rewrite == "resume":
        store = SolverCheckpointStore(tmp_path / type(k).__name__, rank=0)
        cg_solve(op, b, eps=1e-10, max_iters=23, defences=Defences(
            guard=SolverGuard(checkpoint_interval=5, store=store)))
        iteration, arrays, scalars = store.load()
        resume = {"iteration": iteration, "arrays": arrays,
                  "scalars": scalars}
    elif rewrite == "regrow":
        defences = Defences(cancel=_Regrow(k, 7))
    elif rewrite == "handback":  # NumPy scalars, which the bodies hand back
        spied = op.bind_cg
        op.bind_cg = lambda state: _numpy_scalars(spied(state), handed)
    handed = []
    result = cg_solve(op, b, eps=1e-10, max_iters=300, defences=defences,
                      resume_state=resume)
    happened = {"rollback": guard.rollbacks,
                "splice": result.replacement and result.replacement.splices,
                "resume": resume and resume["iteration"],
                "regrow": defences.cancel and defences.cancel.fired,
                "handback": len(handed)}[rewrite]
    return (result.x.data.tobytes(), result.history,
            [s.bound is not None for s in steps], happened)


def _numpy_scalars(step, handed):
    """``step`` handed ``alpha`` as a NumPy scalar every third iteration,
    and ``beta`` on another third (after an ``alpha`` left pending): the
    bound bodies do not take them, so the step settles what is pending
    and makes the reference calls."""
    update, direction = step.update, step.direction

    def scalar(value, when):
        if step.s.iterations % 3 != when:
            return value
        handed.append(when)
        return np.float64(value)

    step.update = lambda alpha: update(scalar(alpha, 0))
    step.direction = lambda beta: direction(scalar(beta, 2))
    return step


@pytest.mark.parametrize("rewrite", ["rollback", "splice", "resume", "regrow",
                                     "handback"])
def test_bound_cg_survives_in_place_rewrites(rewrite, tmp_path):
    """A guard rollback, residual replacement's splice (and the ABFT
    replay's true residual), an exact resume and a workspace pool regrown
    mid-solve all write in place under a bound step, and NumPy scalars
    make it hand calls back with its ``x`` update and direction pending:
    the compiled solve ends bit-identical to the NumPy replay's unbound
    one."""
    runs = [_rewritten_cg(k, rewrite, tmp_path) for k in _instances("numpy")]
    for (*_, bound, happened), k in zip(runs, _instances("numpy")):
        assert happened and set(bound) == {isinstance(k, CompiledBackend)}
    assert all(run[:2] == runs[0][:2] for run in runs)


# -- the reference reduction: one order, whichever body sums it ---------------


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", [(32, 32), (37, 53), (256, 128),
                                   (512, 512)], ids=_name)
def test_numpy_adds_the_lanes_row_by_row(shape, dtype):
    """``np.einsum("ij->j")`` of the ``(cells / 8, 8)`` products adds one
    row after another, so ``reference_dot`` — the NumPy replay's
    reduction — is the lane-by-lane ``cumsum`` statement, bit for bit
    (values over ten decades, so any other order shows)."""
    rng = np.random.default_rng(sum(shape))
    a, b = (rng.standard_normal(shape) * 10.0 ** rng.integers(-5, 5, shape)
            for _ in range(2))
    a, b = a.astype(dtype), b.astype(dtype)
    assert _same(reference_dot(a, b), _lane_dot(a, b))
    rows = np.zeros(-(-a.size // LANES) * LANES, a.dtype)
    rows[:a.size] = (a * b).ravel()
    rows = rows.reshape(-1, LANES)
    lanes = np.einsum("ij->j", rows)
    assert np.array_equal(bits(lanes), bits(np.cumsum(rows, axis=0)[-1]))


#: Shapes of the reduction battery: region cells ragged (not a multiple of
#: the 8 lanes) and not, rows shorter and longer than the lanes, 2-D and
#: 3-D.
REDUCTION_SHAPES = [(13, 7), (37, 53), (16, 16), (1, 9), (9, 1), (5, 6, 7),
                    (4, 4, 4), (3, 1, 11)]


def _reduction_operands(shape, dtype, kind):
    """Padded ``(faces, p, y)`` at halo 2 with ``kind``'s values:
    ``signed-zeros`` makes ``p`` all ``-0.0`` and ``y`` non-negative (so
    ``<p, y>`` adds only ``-0.0`` products), ``overflow`` scales both so
    the products overflow but no stencil does, ``inf`` and ``inf-nan``
    plant ``+inf`` (and ``-inf``, NaN) in ``y``'s interior."""
    faces, p, y = _system(shape, 2, dtype)
    interior = y[_window(_bounds(shape, 2, 0))]
    if kind == "signed-zeros":
        p[...] = -0.0
        np.abs(y, out=y)
    elif kind == "overflow":
        big = 4 * np.sqrt(np.finfo(p.dtype).max)
        p *= big
        y *= big
    elif kind in ("inf", "inf-nan"):
        interior[(0,) * len(shape)] = np.inf
    if kind == "inf-nan":
        interior[tuple(n - 1 for n in shape)] = -np.inf
        interior[tuple(n // 2 for n in shape)] = np.nan
    return faces, p, y


def _cg_fields(tile, p, y):
    """CG's ``x, r, p, w, z`` at halo 2 for :func:`_cg_iterations`:
    copies of ``p, y, p, y``, and ``z`` is ``r``."""
    x, r, d, w = (Field(tile, 2, a.copy()) for a in (p, y, p, y))
    return [x, r, d, w, r]


def _check_reductions(kernels, shape, dtype):
    """Every reduction — ``dot``, ``apply_dot``, ``apply_axpy_dot`` and
    the bound ``cg_update``'s ``<r, r>`` — of each backend of ``kernels``
    is the oracle's lane-by-lane value, bit for bit (NaNs alike), on the
    interior and every extended region of halo 2, for every kind of
    :func:`_reduction_operands`."""
    tile = _span_tiles(shape)[0]
    for kind in ("normal", "signed-zeros", "overflow", "inf", "inf-nan"):
        faces, p, y = _reduction_operands(shape, dtype, kind)
        for ext, bounds in enumerate(_all_bound_sets(shape, 2)):
            c = _window(bounds)
            calls = [
                lambda k: k.dot(p[c], y[c]),
                lambda k: k.dot(y[c], y[c]),
                lambda k: k.apply_dot(*faces, p, np.zeros_like(p), *bounds),
                lambda k: k.apply_dot(*faces, y, np.zeros_like(y), *bounds),
                lambda k: k.apply_axpy_dot(*faces, p, np.zeros_like(p),
                                           y.copy(), -0.75, *bounds),
                lambda k: _cg_iterations(k, faces, _cg_fields(tile, p, y),
                                         ext)]
            for call in calls:
                with np.errstate(all="ignore"):
                    ref = call(ORACLE)
                for k in kernels:
                    got = call(k)
                    assert all(map(_same, np.atleast_1d(got),
                                   np.atleast_1d(ref))), (kind, ext, got, ref)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", REDUCTION_SHAPES, ids=_name)
def test_reductions_are_the_reference_lanes(shape, dtype):
    """The compiled bodies and the NumPy replay sum the oracle's lanes."""
    _check_reductions(_instances("numpy"), shape, dtype)


def _mutant(module_name, old, new):
    """``module_name`` re-executed from its source with ``old`` (which
    must occur exactly once) replaced by ``new``."""
    import importlib.util
    import sys
    import types
    origin = importlib.util.find_spec(module_name).origin
    with open(origin) as handle:
        source = handle.read()
    assert source.count(old) == 1, f"mutation site {old!r} moved"
    module = types.ModuleType(module_name + "_mutant")
    sys.modules[module.__name__] = module   # dataclasses look it up
    try:
        exec(compile(source.replace(old, new), origin, "exec"),
             module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


#: The flat offsets of a stencil pass's (coefficient, neighbour) pair,
#: high tap then low tap — and the same with the two neighbours swapped.
_TAPS, _SWAPPED = "((st, st), (0, -st))", "((st, -st), (0, st))"

#: Seeded mutants of the span arithmetic and of the exchange's phase
#: order (ROADMAP 4d): each must be killed by the battery above — the
#: last three by its 3-D cases only.
SPAN_MUTANTS = {
    "right<->left": (
        "repro.kernels.numpy_backend", _TAPS,
        f"({_SWAPPED} if st == 1 else {_TAPS})"),
    "up<->down": (
        "repro.kernels.numpy_backend", _TAPS,
        f"({_SWAPPED} if st == padded[-1] else {_TAPS})"),
    "span-one-short": (
        "repro.kernels.numpy_backend",
        "s0 + (b1 - b0 - 1) * strides[0] + run))",
        "s0 + (b1 - b0 - 1) * strides[0] + run - 1))"),
    "stencil-flags-reported": (
        "repro.kernels.numpy_backend",
        'with np.errstate(over="ignore", invalid="ignore"):\n'
        "                _stencil_passes(",
        "with np.errstate():\n                _stencil_passes("),
    "general-taken-for-spans": (
        "repro.kernels.numpy_backend",
        "if a.shape != shape or not a.flags.c_contiguous:",
        "if a.size < math.prod(shape) or not a.flags.c_contiguous:"),
    "gap-one-narrow": (
        "repro.mesh.field",
        "strides[a] - run[a + 1]),", "strides[a] - run[a + 1] - 1),"),
    "gaps-not-restored": (
        "repro.mesh.field",
        "np.copyto(gap, saved)", "pass"),
    "field-flags-reported": (
        "repro.mesh.field",
        'with np.errstate(over="ignore", invalid="ignore"):\n'
        "                update(",
        "with np.errstate():\n                update("),
    "front<->back": (
        "repro.kernels.numpy_backend", _TAPS,
        f"({_SWAPPED} if len(padded) == 3 and st == strides[0] else {_TAPS})"),
    "plane-gap-not-restored": (
        "repro.mesh.field",
        "finally:\n            for gap, saved in y.gaps:",
        "finally:\n            for gap, saved in y.gaps[len(y.gaps) > 1:]:"),
    "z-phase-before-y-phase": (
        "repro.mesh.halo",
        "for phase in range(len(plans[0].phases)):",
        "for phase in (0, *reversed(range(1, len(plans[0].phases)))):"),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", SPAN_MUTANTS)
def test_span_mutants_are_killed(name):
    module_name, old, new = SPAN_MUTANTS[name]
    module = _mutant(module_name, old, new)
    with pytest.raises((AssertionError, RuntimeWarning, ValueError)):
        for shape in ((13, 7), (5, 6, 7)):
            if module_name.endswith("field"):
                # The NumPy replay: C loops raise no flags to report.
                _check_field_updates(module.Field, NumpyBackend(), shape, 2,
                                     "float64")
            elif module_name.endswith("halo"):
                check_exchange_fills_ghosts(
                    module.HaloExchanger, grid_of(tuple(2 * n for n in shape)),
                    2 ** len(shape), 2, factors=(2,) * len(shape))
            elif name.startswith("general"):
                _check_layouts_rejected(module.NumpyBackend(), shape,
                                        "staggered", "float64", frozen=True)
            else:
                _check_stencil_chains(module.NumpyBackend(), shape, 3,
                                      "float64", frozen=True)


#: Seeded mutants of ``bodies.c`` — ``(old, new)`` at every occurrence in
#: its source (each kernel is one text for 2-D and 3-D) — and of its build
#: flags: each is built through the loader the real bodies come from and
#: must be killed by the battery above, like the span mutants.
C_MUTANTS = {
    "taps-swapped": (
        "a = a - kx[i + 1] * p[i + 1];   a = a - kx[i] * p[i - 1];",
        "a = a - kx[i] * p[i - 1];   a = a - kx[i + 1] * p[i + 1];"),
    "column-bound-one-short": ("nc = c1 - c0", "nc = c1 - c0 - 1"),
    "diagonal-low-face-first": ("(ZD + ky[i + sy]) + ky[i]",
                                "(ZD + ky[i]) + ky[i + sy]"),
    "dot-operand-row-not-advanced": ("r++, j0 += nc)", "r++)"),
    "axpy-operands-swapped": ("T t = x[i] * (T)(alpha); y[i] = y[i] + t;",
                              "T t = y[i] * (T)(alpha); y[i] = x[i] + t;"),
    "float-widened-to-double": ("T a = d * p[i];", "double a = d * p[i];"),
    "contracted-to-fma": None,
    "step-z-over-the-region": (
        "if (iz0 <= pz && pz < iz1 && ir0 <= pr && pr < ir1) \\\n"
        "        for (size_t i = row + ic0; i < row + ic1; i++)",
        "\\\n        for (size_t i = row + c0; i < row + c1; i++)"),
    "step-beta-scale-swapped": (
        "w[i] = t * (T)scale; t = p[i] * (T)beta;",
        "w[i] = t * (T)beta; t = p[i] * (T)scale;"),
    "step-w-from-the-old-r": ("T t = res[i] - w[i]; res[i] = t;",
                              "T t = res[i]; res[i] = t - w[i];"),
    "step-diagonal-after-the-scale": (
        "if (m) t = t * m[i]; \\\n        w[i] = t * (T)scale;",
        "t = t * (T)scale; \\\n        if (m) t = t * m[i]; w[i] = t;"),
    # The step's one pass: a row's tail before the next row's stencil has
    # read its p; in 3-D, a row behind where the next plane still reads.
    "tail-not-lagged": ("LAG_PASS(PLANE)\n}", "LAG_PASS(0)\n}"),
    "3d-lag-by-row-not-plane": ("#define PLANE nr", "#define PLANE 1"),
    "cg-minus-alpha-on-x": ("AXPY(x, p, alpha)", "AXPY(x, p, -alpha)"),
    "cg-dot-before-the-r-update": (
        "CELLS AXPY(res, w, -alpha) if (dot) ADD(res, res)",
        "if (dot) ADD(res, res) CELLS AXPY(res, w, -alpha)"),
    "cg-beta-on-z": ("T t = y[i] * (T)(beta); y[i] = t + x[i];",
                     "T t = x[i] * (T)(beta); y[i] = t + y[i];"),
    "cg-dot-at-i-not-j": (
        "if (dot) ADD(res, res)",
        "if (dot) NAME(lanes, , S)(s, res + i0, res + i0, i0, nc);"),
    # CG's pass: x from the old p, p on the whole ring, the stencil a row
    # (3-D: a plane) behind the direction it reads.
    "x-after-direction": (
        "    if (INSIDE(pz, pr)) for (size_t i = row + c0; i < row + c1; i++) "
        "\\\n        AXPY(x, p, alpha) \\\n"
        "    for (size_t i = row + C0; i < row + C1; i++) AYPX(p, z, beta)",
        "    for (size_t i = row + C0; i < row + C1; i++) AYPX(p, z, beta) "
        "\\\n    if (INSIDE(pz, pr)) for (size_t i = row + c0; i < row + c1; "
        "i++) \\\n        AXPY(x, p, alpha)"),
    "ring-not-written": (
        "\\\n    for (size_t i = row + C0;",
        "\\\n    if (INSIDE(pz, pr)) for (size_t i = row + C0;"),
    "stencil-not-lagged": ("LAG_PASS(PLANE) return SUM;",
                           "LAG_PASS(0) return SUM;"),
    # The reference reduction's order: every reduction body sums it.
    "seven-lanes": ("#define LANES 8", "#define LANES 7"),
    "lane-from-i-not-j": ("b + i0, j0, nc);", "b + i0, i0, nc);"),
    "lanes-combined-left-to-right": (
        "(((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7])))",
        "(((((((s[0] + s[1]) + s[2]) + s[3]) + s[4]) + s[5]) + s[6]) + s[7])"),
    "row-tail-to-lane-0": ("for (; k < n; k++) l[(j + k) % LANES]",
                           "for (; k < n; k++) l[0]"),
    "float-lanes-widened-to-double": ("T l[LANES];", "double l[LANES];"),
}


def _has_fma() -> bool:
    with open("/proc/cpuinfo") as handle:
        return " fma " in handle.read()


def _build_mutant(name, directory):
    """``name``'s bodies: its source and flags compiled into ``directory``
    and loaded by the loader's own ``_open`` and ``_declare``."""
    source, flags = compiled.SOURCE.read_text(), compiled.FLAGS
    sites = C_MUTANTS[name]
    if sites is None:
        flags = tuple(f for f in flags if "contract" not in f) + (
            "-ffp-contract=fast", "-mfma")
    else:
        source = _mutated(source, *sites)
    (directory / "mutant.c").write_text(source)
    return compiled._declare(compiled._open(
        compiled._compiler(), directory / "mutant.c", flags,
        directory / "mutant.so"))


@pytest.fixture(scope="module")
def mutant_bodies(request, tmp_path_factory):
    """The bodies of every C mutant this run selected, by name, as
    futures: built two at a time (each build is one single-threaded
    compiler process of up to ~4 s; two match a two-core runner) from
    the first test that asks, so each test waits only for its own."""
    from concurrent.futures import ThreadPoolExecutor
    names = [item.callspec.params["name"] for item in request.session.items
             if getattr(item, "originalname", "")
             == "test_c_mutants_are_killed"]
    if baseline_bodies()[0] != "compiled":
        names = []
    elif not _has_fma():
        names = [n for n in names if C_MUTANTS[n] is not None]
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = {name: pool.submit(_build_mutant, name,
                                     tmp_path_factory.mktemp("mutant"))
                   for name in names}
        yield futures
        for future in futures.values():
            future.cancel()


@pytest.mark.parametrize("name", C_MUTANTS)
def test_c_mutants_are_killed(name, mutant_bodies):
    if baseline_bodies()[0] != "compiled":
        pytest.skip(baseline_bodies()[1])
    if C_MUTANTS[name] is None and not _has_fma():
        pytest.skip("this CPU has no fused multiply-add")
    bodies = mutant_bodies[name].result()
    with pytest.raises(AssertionError):
        for dtype in DTYPES:
            for shape in ((13, 7), (5, 6, 7)):
                _check_stencil_chains(CompiledBackend(bodies), shape, 3,
                                      dtype, frozen=True)
                _check_field_updates(Field, CompiledBackend(bodies),
                                     shape, 2, dtype)
                for inner in ("none", "diagonal"):
                    _check_chebyshev_steps([CompiledBackend(bodies)],
                                           shape, dtype, inner)
                _check_cg_bodies([CompiledBackend(bodies)], shape, dtype)
                _check_reductions([CompiledBackend(bodies)], shape, dtype)


def _mutated(source, old, new):
    assert old in source, f"mutation site {old!r} moved"
    return source.replace(old, new)


#: ``bodies.c``'s clone macro: with it, each body is built twice and the
#: loader's CPU picks one; without it, the object has only the ``default``
#: copy.
CLONE_SITE = '#define CLONED __attribute__((target_clones("avx2", "default")))'


def test_default_clone_gives_the_same_bits(tmp_path, monkeypatch):
    """The loaded bodies run the copy this CPU picks (AVX2 where it has
    it); the same source with the clone macro empty builds the
    ``default`` copy alone.  Both pass the every-bit battery — each cell
    and each reduction the oracle's bits — on rows shorter and longer
    than a vector, 2-D and 3-D, in both dtypes: which copy runs cannot
    move a bit."""
    if baseline_bodies()[0] != "compiled":
        pytest.skip(baseline_bodies()[1])
    source = compiled.SOURCE.read_text()
    assert CLONE_SITE in source, "clone macro moved"
    (tmp_path / "bodies.c").write_text(
        source.replace(CLONE_SITE, "#define CLONED"))
    monkeypatch.setattr(compiled, "_cache_dirs", lambda: [tmp_path / "cache"])
    plain, path = compiled.load(tmp_path / "bodies.c")
    with pytest.raises(AttributeError):
        ctypes.CDLL(path)["stencil2_d.resolver"]
    builds = [CompiledBackend(), CompiledBackend(plain)]
    for dtype in DTYPES:
        for shape in ((13, 7), (37, 53), (5, 6, 7), (6, 9, 21)):
            for k in builds:
                _check_stencil_chains(k, shape, 3, dtype, frozen=True)
                _check_field_updates(Field, k, shape, 2, dtype)
            for inner in ("none", "diagonal"):
                _check_chebyshev_steps(builds, shape, dtype, inner)
            _check_cg_bodies(builds, shape, dtype)
            _check_reductions(builds, shape, dtype)


@pytest.mark.parametrize("backend", BACKENDS)
def test_stencil_rejects_output_aliasing_input(backend):
    """The whole-array expression tolerated ``out is p``; the in-place
    blocked body cannot, and says so instead of computing garbage."""
    k = _path(backend)
    for shape in ((13, 7), (5, 6, 7)):
        faces, p, y = _system(shape, 1, "float64")
        bounds = _bounds(shape, 1, 0)
        with pytest.raises(ConfigurationError, match="alias"):
            k.stencil_apply(*faces, p, p, *bounds)
        with pytest.raises(ConfigurationError, match="alias"):
            k.apply_dot(*faces, p, p, *bounds)
        with pytest.raises(ConfigurationError, match="alias"):
            k.apply_axpy_dot(*faces, p, p, y, -1.0, *bounds)
        with pytest.raises(ConfigurationError, match="loop bounds"):
            k.stencil_apply(*faces, p, y, *bounds[2:])


@pytest.mark.parametrize("backend", BACKENDS)
def test_overflowing_reduction_is_a_value_not_a_warning(backend):
    """An overflowed dot is inf for the solvers' guards to report; under
    this suite's filters a ``RuntimeWarning`` from a kernel is an error."""
    a = np.full((300, 300), 1e200)[1:-1, 1:-1]
    k = _path(backend)
    assert k.dot(a, a) == np.inf and k.norm(a) == np.inf


# -- allocation: a steady-state iteration allocates no array -----------------------


@pytest.fixture
def small_ufunc_buffers():
    """NumPy gives every strided ufunc operand an iterator buffer of
    ``getbufsize()`` elements (64 KiB each here, allocated whether or not
    the loop uses it).  They are not array temporaries; shrunk to 1 KiB
    they cannot mask one in the allocation tests below."""
    previous = np.setbufsize(128)
    yield
    np.setbufsize(previous)


class _AllocationProbe:
    """A cancel token that measures instead of cancelling: the peak of
    traced memory over iterations ``first``..``last``, above its level at
    the start of iteration ``first``."""

    def __init__(self, first, last):
        self.first, self.last, self.growth = first, last, None

    def check(self, iteration):
        if iteration == self.first:
            tracemalloc.start()
            self._base = tracemalloc.get_traced_memory()[0]
        elif iteration == self.last + 1:
            self.growth = tracemalloc.get_traced_memory()[1] - self._base
            tracemalloc.stop()


def _steady_state_growth(op, bg):
    """Peak traced memory over iterations 6-25 of a 30-iteration CG."""
    probe = _AllocationProbe(6, 25)
    try:
        result = cg_solve(op, Field.from_global(op.tile, op.halo, bg),
                          eps=1e-30, max_iters=30,
                          defences=Defences(cancel=probe))
    finally:
        tracemalloc.stop()
    assert result.iterations == 30 and probe.growth is not None
    return probe.growth


@pytest.mark.parametrize("backend", BACKENDS)
def test_cg_iterations_allocate_no_array(backend, small_ufunc_buffers):
    """Iterations 6-25 of a 256^2 CG never hold a new block as large as
    one row block of a field (any whole-array temporary is 3x that)."""
    n = 256
    grid, kxg, kyg, bg = crooked_pipe_system(n)
    row_block = _block_rows(n, n, 8, streams=8) * n * 8
    assert row_block < n * n * 8 // 3
    k = _path(backend)
    growth = _steady_state_growth(
        serial_operator(grid, kxg, kyg).with_kernels(k), bg)
    assert growth < row_block, \
        f"{growth} bytes allocated inside steady-state iterations"


@pytest.mark.parametrize("backend", BACKENDS)
def test_blas1_tail_on_3d_fields_allocates_no_array(backend,
                                                    small_ufunc_buffers):
    """The 3-D operator is the same class on the same kernels: a 40^3 CG
    — stencil, span updates, dots — never holds a new block as large as
    one block of planes of a field (a quarter of it)."""
    n = 40
    grid, *faces, bg = crooked_duct_system(n)
    k = _path(backend)
    growth = _steady_state_growth(
        serial_operator(grid, *faces).with_kernels(k), bg)
    assert growth < _block_rows(n, n * n, 8, streams=8) * n * n * 8, \
        f"{growth} bytes allocated inside steady-state iterations"


def test_workspace_is_shared_across_extents():
    """Four regions of different extents (CPPCG's shrinking matrix-powers
    bounds) leave every workspace slot a backend uses — block scratch and
    the reductions' products for the NumPy replay, none for the compiled
    loops — no larger than the largest needs: its rows at the padded
    pitch (span scratch keeps the halo columns)."""
    shape, halo = (96, 80), 4
    (kx, ky), p, y = _system(shape, halo, "float64")
    kx.flags.writeable = ky.flags.writeable = False
    assert len(_all_bound_sets(shape, halo)) == 4
    largest = (shape[0] + 2 * (halo - 1)) * (shape[1] + 2 * halo) * 8
    for k in _instances("numpy"):
        out = np.zeros_like(p)
        for bounds in reversed(_all_bound_sets(shape, halo)):
            k.apply_dot(kx, ky, p, out, *bounds)
            k.apply_axpy_dot(kx, ky, p, out, y, -1.0, *bounds)
        used = [pool for pool in k._pools if pool is not None]
        assert len(used) == (0 if isinstance(k, CompiledBackend) else 3)
        assert all(pool.nbytes <= largest for pool in used)


# -- full-solve differential: the eight COMM_CONTRACT configurations -----------

#: Mirrors ``repro.analysis.verify.default_specs`` — same solver family,
#: same matrix-powers depths, same deflation blocking.
SOLVE_CONFIGS = [
    ("cg", SolverOptions(solver="cg", eps=1e-8, max_iters=500)),
    ("cg_fused", SolverOptions(solver="cg_fused", eps=1e-8, max_iters=500)),
    ("jacobi", SolverOptions(solver="jacobi", eps=1e-8, max_iters=300)),
    ("chebyshev", SolverOptions(solver="chebyshev", eps=1e-8, max_iters=500,
                                eigen_warmup_iters=8)),
    ("chebyshev-depth4", SolverOptions(solver="chebyshev", eps=1e-8,
                                       max_iters=500, eigen_warmup_iters=8,
                                       halo_depth=4)),
    ("ppcg", SolverOptions(solver="ppcg", eps=1e-8, max_iters=200,
                           ppcg_inner_steps=4, eigen_warmup_iters=8)),
    ("ppcg-depth4", SolverOptions(solver="ppcg", eps=1e-8, max_iters=200,
                                  ppcg_inner_steps=8, halo_depth=4,
                                  eigen_warmup_iters=8)),
    ("dcg", SolverOptions(solver="dcg", eps=1e-8, max_iters=500,
                          deflation_blocks=(2, 2))),
]


@pytest.mark.parametrize("backend", OTHERS)
@pytest.mark.parametrize("label,opt", SOLVE_CONFIGS,
                         ids=[name for name, _ in SOLVE_CONFIGS])
def test_full_solve_differential(label, opt, backend):
    """Solves routed through the replay by ``with_kernels`` reproduce
    the baseline's trajectory: the same iteration counts (outer and
    inner) and — measured through the true-residual referee — the same
    relative residual, bit for bit."""
    grid, kxg, kyg, bg = crooked_pipe_system(16)
    o = replace(opt, true_residual=True)
    results = {}
    for name in ("numpy", backend):
        op = serial_operator(grid, kxg, kyg, halo=o.required_field_halo)
        op = op.with_kernels(_path(name))
        b = Field.from_global(op.tile, op.halo, bg)
        results[name] = solve_linear(op, b, options=o)
    ref, alt = results["numpy"], results[backend]
    assert alt.converged == ref.converged
    assert alt.iterations == ref.iterations, \
        f"{label}[{backend}] changed the iteration count"
    assert alt.inner_iterations == ref.inner_iterations
    assert ref.true_relative_residual is not None
    assert _same(alt.true_relative_residual, ref.true_relative_residual)


#: (outer, inner) iteration counts of SOLVE_CONFIGS on the 16^2 crooked
#: pipe as measured before the baseline was blocked (the ``chebyshev`` and
#: ``ppcg`` ones since ``lam_max`` became the Gershgorin bound).
PINNED_ITERATIONS = {
    "cg": (23, 0), "cg_fused": (23, 0), "jacobi": (51, 0),
    "chebyshev": (20, 0), "chebyshev-depth4": (20, 0),
    "ppcg": (5, 24), "ppcg-depth4": (3, 32), "dcg": (23, 0),
}


#: sha256 (first 16 hex digits) of the padded solution of the two solvers
#: that updated ``x``/``r``/``p`` with whole-array temporaries outside the
#: backends until they were routed through ``Field.axpy``/``aypx`` —
#: recorded before the routing, with the iteration counts above — and of
#: the ranks' padded solutions, in rank order, of the two matrix-powers
#: configurations on the 48^2 crooked pipe over 1x2 and 2x2 ranks,
#: recorded before the Chebyshev step had a compiled body (since
#: ``lam_max`` became the Gershgorin bound) — and of CG on
#: ranks (``cg`` bare and diagonally scaled on that pipe, ``cg`` on the
#: 12^3 duct over 2 ranks), recorded before CG's iteration was bound.
PINNED_SOLUTIONS = {"jacobi": "bf37c77db26be68b", "dcg": "b227bbfe7dfd7e1e",
                    "ppcg-depth4@1x2": "f76d22fab6c64d30",
                    "ppcg-depth4@2x2": "c51d3e11114e9b0f",
                    "chebyshev-depth4@1x2": "d82bf9d9c4363bab",
                    "chebyshev-depth4@2x2": "30d630565cf8b606",
                    "cg@1x2": "f43c8fd52525e007", "cg@2x2": "ead8522be4e205b2",
                    "cg-diagonal@1x2": "23d91834028c4ad3",
                    "cg-diagonal@2x2": "21179d1befa0cf0f",
                    "cg-duct@2": "da12bd262131c457",
                    "cg-duct@2x2x1": "b29221895f07927e"}


@pytest.mark.parametrize("label,opt", SOLVE_CONFIGS,
                         ids=[name for name, _ in SOLVE_CONFIGS])
def test_full_solve_identical_to_oracle(label, opt):
    """Every COMM_CONTRACT configuration, solved through the blocked
    baseline, reproduces the whole-array oracle's trajectory exactly:
    the pinned iteration counts and the same true relative residual,
    digit for digit."""
    grid, kxg, kyg, bg = crooked_pipe_system(16)
    o = replace(opt, true_residual=True)
    results = []
    for kernels in (OracleBackend(), *_instances("numpy")):
        op = replace(serial_operator(grid, kxg, kyg,
                                     halo=o.required_field_halo),
                     kernels=kernels, exchanger=None)
        b = Field.from_global(op.tile, op.halo, bg)
        results.append(solve_linear(op, b, options=o))
    ref, *both = results
    assert (ref.iterations, ref.inner_iterations) == PINNED_ITERATIONS[label]
    for new in both:
        assert (new.iterations,
                new.inner_iterations) == PINNED_ITERATIONS[label]
        assert new.converged == ref.converged
        assert new.true_relative_residual == ref.true_relative_residual
        assert np.array_equal(new.x.data, ref.x.data)
        if label in PINNED_SOLUTIONS:
            digest = hashlib.sha256(new.x.data.tobytes()).hexdigest()[:16]
            assert digest == PINNED_SOLUTIONS[label]


@pytest.mark.parametrize("factors", [(1, 2), (2, 2)], ids=["1x2", "2x2"])
@pytest.mark.parametrize("label", ["ppcg-depth4", "chebyshev-depth4"])
def test_decomposed_matrix_powers_identical_to_oracle(label, factors):
    """On one rank ``region(ext)`` never grows; on 1x2 and 2x2 ranks it
    does, so the inner steps run on extended regions: every rank's padded
    ``x`` is the oracle's bit for bit, and the pinned digest."""
    assert (_decomposed_digest(crooked_pipe_system(48),
                               dict(SOLVE_CONFIGS)[label], factors)
            == PINNED_SOLUTIONS[f"{label}@{factors[0]}x{factors[1]}"])


@pytest.mark.parametrize("label", ["cg@1x2", "cg@2x2", "cg-diagonal@1x2",
                                   "cg-diagonal@2x2", "cg-duct@2",
                                   "cg-duct@2x2x1"])
def test_decomposed_cg_identical_to_oracle(label):
    """CG's bound iteration on ranks — the 48^2 pipe on 1x2 and 2x2, bare
    and diagonally scaled, the 12^3 duct on 2 and 2x2x1 — leaves every
    rank's padded ``x`` the oracle's bit for bit, and the pinned digest:
    the ghost ring of ``p`` each rank computes from its neighbours' ``z``
    is their own ``p``."""
    name, ranks = label.split("@")
    opt = replace(dict(SOLVE_CONFIGS)["cg"], preconditioner="diagonal"
                  if name == "cg-diagonal" else "none")
    system = (crooked_duct_system(12) if name == "cg-duct"
              else crooked_pipe_system(48))
    factors = tuple(map(int, ranks.split("x")))
    assert (_decomposed_digest(system, opt, factors)
            == PINNED_SOLUTIONS[label])


def _decomposed_digest(system, opt, factors):
    """``opt`` solved on ranks — ``factors`` the process grid, ``(n,)``
    for ``n`` ranks laid out by default — through the oracle and each
    ``numpy`` backend: asserts every rank's padded ``x`` agrees bit for
    bit, returns the digest of them all, in rank order."""
    grid, *faces, bg = system
    o = replace(opt, true_residual=True)
    solutions = []
    for make in (OracleBackend, *map(type, _instances("numpy"))):
        def route(op, stack, store, make=make):
            op.kernels = op.exchanger.kernels = make()
            return {}
        run = solve_on_ranks(grid, faces, bg, o, math.prod(factors),
                             factors=factors if len(factors) > 1 else None,
                             before_solve=route)
        solutions.append(b"".join(rank.result.x.data.tobytes()
                                  for rank in run.ranks))
    assert all(x == solutions[0] for x in solutions)
    return hashlib.sha256(solutions[0]).hexdigest()[:16]


#: The pins the every-CPU test re-runs: every digest pin of this file and
#: the pins elsewhere that failed under ``OPENBLAS_CORETYPE=Haswell`` while
#: ``np.dot`` was the reference reduction.
EVERY_CPU_PINS = [
    "tests/test_kernels_equivalence.py::"
    "test_full_solve_identical_to_oracle[jacobi]",
    "tests/test_kernels_equivalence.py::"
    "test_full_solve_identical_to_oracle[dcg]",
    "tests/test_kernels_equivalence.py::"
    "test_decomposed_matrix_powers_identical_to_oracle",
    "tests/test_kernels_equivalence.py::test_decomposed_cg_identical_to_oracle",
    "tests/test_checkpoint_restart.py::TestSolverCheckpointStore::"
    "test_cg_resumes_bit_identically_from_a_guard_shard",
    "tests/test_numerics.py::TestPpcgRestartAndFallback::"
    "test_fallback_to_plain_cg",
    "tests/test_numerics.py::TestResidualReplacement",
    "tests/test_resilience.py::TestDefencePaths::test_bad_scalar_rolls_back",
    "tests/test_resilience.py::TestDefencePaths::test_abft_drift_rolls_back",
    "tests/test_resilience.py::TestDegradation",
    "tests/test_eigen.py::TestSturmBisection",
]


def test_digest_pins_hold_under_every_openblas_kernel_set():
    """One answer on every CPU: :data:`EVERY_CPU_PINS` pass in child
    processes whose OpenBLAS runs its own choice of kernels and the
    Haswell, Sandybridge and Prescott ones — whose ``ddot`` orders differ
    (four different sums of one 512² vector here)."""
    import os
    import platform
    import subprocess
    import sys
    from pathlib import Path
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip("the OpenBLAS core types named are x86's")
    root = Path(__file__).resolve().parents[1]
    env = {name: value for name, value in os.environ.items()
           if name != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    children = {core: subprocess.Popen(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *EVERY_CPU_PINS], cwd=root, text=True, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env={**env, **({"OPENBLAS_CORETYPE": core} if core else {})})
        for core in ("", "Haswell", "Sandybridge", "Prescott")}
    for core, child in children.items():
        out = child.communicate(timeout=900)[0]
        assert child.returncode == 0, f"OPENBLAS_CORETYPE={core!r}:\n{out}"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_diverging_inner_steps_end_alike_on_both_paths():
    """``lam_max`` under-estimated tenfold (and ``lam_min``): 160 inner
    steps overflow.  The compiled step raises no flag, and no pass of the
    NumPy replay reports one either — the guards see the overflow in the
    outer reductions — so plain CPPCG breaks down, ``degrade`` finishes on
    plain CG, and the solver's own interval converges, alike on both."""
    grid, kxg, kyg, bg = crooked_pipe_system(32)
    bad = EigenBounds(0.1, 0.11)
    outcomes = []
    for k in _instances("numpy"):
        for mode in ({"bounds": bad}, {"bounds": bad, "degrade": True},
                     {"bounds": None}):
            op = replace(serial_operator(grid, kxg, kyg, halo=4), kernels=k,
                         exchanger=None)
            b = Field.from_global(op.tile, op.halo, bg)
            try:
                r = ppcg_solve(op, b, eps=1e-8, max_iters=100, warmup_iters=10,
                               inner_steps=160, halo_depth=4, **mode)
                outcomes.append((r.iterations, r.inner_iterations,
                                 getattr(r, "degraded_reason", ""),
                                 r.converged))
            except Exception as exc:
                outcomes.append((type(exc).__name__, str(exc)))
    plain, degrade, own = outcomes[:3]
    assert plain[0] == "BreakdownError"
    assert degrade[2].startswith("fell back to plain CG") and degrade[3]
    assert own[2:] == ("", True)
    assert outcomes == outcomes[:3] * (len(outcomes) // 3)


# -- registry, options and deck plumbing ---------------------------------------


class TestRegistry:
    def test_known_and_available(self):
        """One name; which class it builds is a fact of the machine."""
        assert DEFAULT_BACKEND == "numpy"
        k = get_backend("numpy")
        assert k.name == "numpy"
        assert isinstance(k, CompiledBackend) == (
            baseline_bodies()[0] == "compiled")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            get_backend("cuda")

    def test_unavailable_numba_raises_with_install_hint(self):
        """The optional backend that never ran here left the registry:
        its name is unknown, and the error says what is known."""
        with pytest.raises(ConfigurationError,
                           match="unknown kernel backend") as refusal:
            get_backend("numba")
        assert "numpy" in str(refusal.value)


class TestOptionsAndDeck:
    """The backend is not a knob: the options field it once was is
    refused in each of its spellings — keyword, deck key and flag."""

    def test_options_report_the_one_backend(self):
        from repro.solvers.options import options_to_dict
        opt = SolverOptions()
        assert opt.kernel_backend == "numpy"
        assert "kernel_backend" not in options_to_dict(opt)

    def test_options_reject_unknown_backend(self):
        with pytest.raises(TypeError, match="kernel_backend"):
            SolverOptions(kernel_backend="numpy")

    def test_deck_key_rejects_unknown_backend(self):
        from repro.physics.deck import parse_deck_text
        with pytest.raises(ConfigurationError,
                           match="line 2: unknown setting 'tl_kernel_backend'"):
            parse_deck_text("tl_eps=1e-8\ntl_kernel_backend=fused")

    def test_solve_has_no_backend_flag(self, capsys):
        from repro.cli.main import main
        with pytest.raises(SystemExit) as refusal:
            main(["solve", "--deck", "tea.in", "--kernel-backend", "numpy"])
        assert refusal.value.code == 2
        assert "--kernel-backend" in capsys.readouterr().err
