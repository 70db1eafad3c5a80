"""Kernel-equivalence battery: every backend vs the ``numpy`` baseline.

The numerical policy under test (``docs/kernels.md``, ``repro.kernels.base``):

- **fp-order-preserving kernels** (``stencil_apply``, ``axpy``, the field
  updates of ``apply_axpy_dot``, ``pack_halo``/``unpack_halo``) must match
  the baseline **bit for bit** for every dtype, shape and halo depth;
- **reductions** (``dot``, ``norm``, the scalars of ``apply_dot`` /
  ``apply_axpy_dot``) may reassociate and must agree within the documented
  bound ``reduction_tolerance`` (= 64 * eps(dtype) * sum|a_i b_i|).

Both halves run differentially over a dtype x mesh-shape x halo-depth
grid — 2-D and 3-D shapes in one battery, including 1-cell-wide tiles,
non-square regions and multi-block shapes large enough to force the fused
backend through its cache-blocked path — for every registered backend.  A full-solve differential then
proves ``kernel_backend="fused"`` reproduces the baseline's iteration
count and true relative residual for all eight COMM_CONTRACT solver
configurations.

The baseline itself is blocked and allocation-free; what defines its bit
patterns is the whole-array one-liner it replaced, kept here — written
over the axes, so it is the 5-point and the 7-point expression — as the
test-only :class:`OracleBackend`.  The ``numpy`` backend must match it
**exactly** — fields and reductions — kernel by kernel and over full
solves, and a steady-state CG iteration on it must allocate no array.
Two classes go by that name — the NumPy replay and, where the machine has
a C compiler, the compiled loops of ``bodies.c`` — and every ``numpy``
case below runs both (:func:`_instances`); seeded mutants of the C source
and of its build flags must die on the same battery.
"""

import hashlib
import tracemalloc

from dataclasses import replace

import numpy as np
import pytest

from repro.kernels import (
    DEFAULT_BACKEND,
    KNOWN_BACKENDS,
    CompiledBackend,
    KernelBackend,
    NumpyBackend,
    available_backends,
    backend_status,
    baseline_bodies,
    compiled,
    get_backend,
    reduction_tolerance,
)
from repro.kernels.numpy_backend import _block_rows, _operands
from repro.mesh import Field, decompose
from repro.solvers import Defences, SolverOptions, cg_solve, solve_linear
from repro.testing import crooked_pipe_system, serial_operator
from repro.utils.errors import ConfigurationError

from tests.helpers import (bits, check_exchange_fills_ghosts,
                           crooked_duct_system, grid_of)

BASELINE = get_backend("numpy")

#: Every registered non-baseline backend is tested.
OTHERS = [n for n in available_backends() if n != "numpy"]


def _instances(name):
    """Fresh backends for one registry name — for ``numpy`` both classes
    that go by it: the NumPy replay and, where this machine builds them,
    the compiled loops (``get_backend`` alone would test only one)."""
    if name != "numpy":
        return [get_backend(name)]
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


GRID = [pytest.param(shape, halo, dtype, id=f"{_name(shape)}-h{halo}-{dtype}")
        for shape in SHAPES for halo in HALOS for dtype in DTYPES]


@pytest.mark.parametrize("backend", OTHERS)
@pytest.mark.parametrize("shape,halo,dtype", GRID)
class TestKernelGrid:
    """Differential battery over the dtype x shape x halo grid."""

    def test_stencil_apply_bitwise(self, shape, halo, dtype, backend):
        faces, p, _ = _system(shape, halo, dtype)
        k = get_backend(backend)
        for bounds in _bound_sets(shape, halo):
            ref, out = np.zeros_like(p), np.zeros_like(p)
            BASELINE.stencil_apply(*faces, p, ref, *bounds)
            k.stencil_apply(*faces, p, out, *bounds)
            assert out.dtype == ref.dtype
            assert np.array_equal(out, ref), \
                f"stencil_apply[{backend}] drifted from baseline bits"

    def test_apply_dot_field_bitwise_scalar_bounded(self, shape, halo,
                                                    dtype, backend):
        faces, p, _ = _system(shape, halo, dtype)
        k = get_backend(backend)
        for bounds in _bound_sets(shape, halo):
            ref, out = np.zeros_like(p), np.zeros_like(p)
            d_ref = BASELINE.apply_dot(*faces, p, ref, *bounds)
            d = k.apply_dot(*faces, p, out, *bounds)
            assert np.array_equal(out, ref)
            region = _window(bounds)
            assert abs(d - d_ref) <= reduction_tolerance(p[region],
                                                         ref[region]), \
                f"apply_dot[{backend}] scalar outside the documented bound"

    def test_apply_axpy_dot_updates_bitwise_scalar_bounded(
            self, shape, halo, dtype, backend):
        faces, p, y = _system(shape, halo, dtype)
        k = get_backend(backend)
        alpha = -1.0  # the Jacobi residual chain: y = b - A p
        for bounds in _bound_sets(shape, halo):
            ref_out, ref_y = np.zeros_like(p), y.copy()
            out, yw = np.zeros_like(p), y.copy()
            d_ref = BASELINE.apply_axpy_dot(*faces, p, ref_out, ref_y,
                                            alpha, *bounds)
            d = k.apply_axpy_dot(*faces, p, out, yw, alpha, *bounds)
            assert np.array_equal(out, ref_out)
            assert np.array_equal(yw, ref_y), \
                f"apply_axpy_dot[{backend}] y-update drifted from baseline"
            yr = ref_y[_window(bounds)]
            assert abs(d - d_ref) <= reduction_tolerance(yr, yr)

    def test_dot_within_reduction_bound(self, shape, halo, dtype, backend):
        _, p, y = _system(shape, halo, dtype)
        interior = _window(_bounds(shape, halo, 0))
        a, b = p[interior], y[interior]
        d_ref = BASELINE.dot(a, b)
        d = get_backend(backend).dot(a, b)
        assert abs(d - d_ref) <= reduction_tolerance(a, b)

    def test_norm_within_reduction_bound(self, shape, halo, dtype, backend):
        _, p, _ = _system(shape, halo, dtype)
        a = p[_window(_bounds(shape, halo, 0))]
        n_ref = BASELINE.norm(a)
        n = get_backend(backend).norm(a)
        # norm = sqrt(<a,a>); compare the squares against the dot bound.
        assert abs(n * n - n_ref * n_ref) <= reduction_tolerance(a, a)

    def test_axpy_bitwise(self, shape, halo, dtype, backend):
        _, p, y = _system(shape, halo, dtype)
        interior = _window(_bounds(shape, halo, 0))
        for alpha in (0.75, -0.75, 1.0, -1.0):
            ref = y.copy()
            yw = y.copy()
            BASELINE.axpy(ref[interior], alpha, p[interior])
            get_backend(backend).axpy(yw[interior], alpha, p[interior])
            assert np.array_equal(yw, ref), \
                f"axpy[{backend}] alpha={alpha} drifted from baseline bits"

    def test_pack_unpack_halo_bitwise(self, shape, halo, dtype, backend):
        _, p, y = _system(shape, halo, dtype)
        k = get_backend(backend)
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
            assert np.array_equal(buf, ref)
            a_ref, a = y.copy(), y.copy()
            BASELINE.unpack_halo(a_ref, *region, ref)
            k.unpack_halo(a, *region, buf)
            assert np.array_equal(a, a_ref)


# -- the baseline against the whole-array oracle it replaced ---------------------


class OracleBackend(KernelBackend):
    """The pre-blocking ``numpy`` backend: whole-array expressions, a
    temporary per term, ``ravel()`` copies per dot — the 5-point one-liner
    written over the axes, so the 7-point one too.

    Test-only.  It reports the baseline's name so ``solve_linear`` keeps
    it in place when a solve asks for ``kernel_backend="numpy"``.
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
        return float(np.dot(p[c].ravel(), out[c].ravel()))

    def apply_axpy_dot(self, *args):
        faces, p, out, (y, alpha), bounds = _operands(args, 2)
        self.stencil_apply(*faces, p, out, *bounds)
        yr = y[_window(bounds)]
        yr += alpha * out[_window(bounds)]
        return float(np.dot(yr.ravel(), yr.ravel()))

    def dot(self, a, b):
        return float(np.dot(a.ravel(), b.ravel()))

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


def _check_stencil_chains(k, shape, halo, dtype, frozen, exact):
    """``out`` and ``y`` start as poison everywhere a chain may not
    write, ``p`` holds poison wherever the stencil does not read: after
    each chain of backend ``k`` every array equals the oracle's bit for
    bit — so nothing outside the region moved.  ``exact`` also holds the
    reductions to the oracle's value, not just its envelope."""
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
        assert abs(d - d_ref) <= (0.0 if exact else
                                  reduction_tolerance(pp[c], ref[c]))

        ref, out = blank.copy(), blank.copy()
        ref_y, yw = yp.copy(), yp.copy()
        d_ref = ORACLE.apply_axpy_dot(*faces, pp, ref, ref_y, -0.75, *bounds)
        d = k.apply_axpy_dot(*faces, pp, out, yw, -0.75, *bounds)
        assert np.array_equal(bits(out), bits(ref))
        assert np.array_equal(bits(yw), bits(ref_y))
        assert abs(d - d_ref) <= (0.0 if exact else
                                  reduction_tolerance(ref_y[c], ref_y[c]))
        assert np.array_equal(bits(pp), bits(_poison(p.copy(), read)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("backend", ["numpy", "fused"])
@pytest.mark.parametrize("frozen", [False, True], ids=["writeable", "frozen"])
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("halo", SPAN_HALOS)
@pytest.mark.parametrize("shape", SPAN_SHAPES, ids=SPAN_IDS)
def test_stencil_chains_write_only_the_region(shape, halo, dtype, frozen,
                                              backend):
    """Every region the halo allows, nothing warned on the way."""
    for k in _instances(backend):
        _check_stencil_chains(k, shape, halo, dtype, frozen,
                              exact=backend == "numpy")


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


@pytest.mark.parametrize("backend", ["numpy", "fused"])
@pytest.mark.parametrize("frozen", [False, True], ids=["writeable", "frozen"])
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("layout", ["staggered", "windowed"])
@pytest.mark.parametrize("shape", SPAN_SHAPES[:5], ids=SPAN_IDS[:5])
def test_general_layouts_write_only_the_region(shape, layout, dtype, frozen,
                                               backend):
    """There is one stencil body and it walks spans: layouts it cannot
    walk are refused whole, so they write nothing at all."""
    for k in _instances(backend):
        _check_layouts_rejected(k, shape, layout, dtype, frozen)


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
@pytest.mark.parametrize("backend", ["numpy", "fused", "oracle"])
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("halo", SPAN_HALOS)
@pytest.mark.parametrize("shape", SPAN_SHAPES, ids=SPAN_IDS)
def test_field_updates_write_only_the_region(shape, halo, dtype, backend):
    """Through either backend and the whole-array oracle, warning-free."""
    for k in [ORACLE] if backend == "oracle" else _instances(backend):
        _check_field_updates(Field, k, shape, halo, dtype)


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
        "for axis in reversed(range(tile.ndim)):",
        "for axis in (tile.ndim - 1, *range(tile.ndim - 1)):"),
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
                                      "float64", frozen=True, exact=True)


#: Seeded mutants of ``bodies.c`` — ``(old, new)`` at every occurrence in
#: its source (the 2-D and the 3-D cell share lines) — and of its build
#: flags: each is built through the loader the real bodies come from and
#: must be killed by the battery above, like the span mutants.
C_MUTANTS = {
    "taps-swapped": (
        "a = a - kx[i + 1] * p[i + 1];   a = a - kx[i] * p[i - 1];",
        "a = a - kx[i] * p[i - 1];   a = a - kx[i + 1] * p[i + 1];"),
    "column-bound-one-short": ("nc = c1 - c0", "nc = c1 - c0 - 1"),
    "diagonal-low-face-first": ("(ky[i + sy] + (T)1) + ky[i]",
                                "(ky[i] + (T)1) + ky[i + sy]"),
    "dot-operand-row-not-advanced": ("j = (r - r0) * nc", "j = 0"),
    "axpy-operands-swapped": ("T t = x[i] * (T)alpha; y[i] = y[i] + t;",
                              "T t = y[i] * (T)alpha; y[i] = x[i] + t;"),
    "float-widened-to-double": ("T a = d * p[i];", "double a = d * p[i];"),
    "contracted-to-fma": None,
}


@pytest.mark.parametrize("name", C_MUTANTS)
def test_c_mutants_are_killed(name, tmp_path, monkeypatch):
    if baseline_bodies()[0] != "compiled":
        pytest.skip(baseline_bodies()[1])
    source, flags = compiled.SOURCE.read_text(), compiled.FLAGS
    if C_MUTANTS[name] is None:
        with open("/proc/cpuinfo") as handle:
            if " fma " not in handle.read():
                pytest.skip("this CPU has no fused multiply-add")
        flags = tuple(f for f in flags if "contract" not in f) + (
            "-ffp-contract=fast", "-mfma")
    else:
        old, new = C_MUTANTS[name]
        assert old in source, f"mutation site {old!r} moved"
        source = source.replace(old, new)
    (tmp_path / "bodies.c").write_text(source)
    monkeypatch.setattr(compiled, "_cache_dirs", lambda: [tmp_path / "cache"])
    bodies, _ = compiled.load(tmp_path / "bodies.c", flags)
    with pytest.raises(AssertionError):
        for dtype in DTYPES:
            for shape in ((13, 7), (5, 6, 7)):
                _check_stencil_chains(CompiledBackend(bodies), shape, 3,
                                      dtype, frozen=True, exact=True)
                _check_field_updates(Field, CompiledBackend(bodies), shape,
                                     2, dtype)


@pytest.mark.parametrize("backend", ["numpy", "fused"])
def test_stencil_rejects_output_aliasing_input(backend):
    """The whole-array expression tolerated ``out is p``; the in-place
    blocked body cannot, and says so instead of computing garbage."""
    for k in _instances(backend):
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


@pytest.mark.parametrize("backend", ["numpy", "fused"])
def test_overflowing_reduction_is_a_value_not_a_warning(backend):
    """An overflowed dot is inf for the solvers' guards to report; under
    this suite's filters a ``RuntimeWarning`` from a kernel is an error."""
    a = np.full((300, 300), 1e200)[1:-1, 1:-1]
    for k in _instances(backend):
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


@pytest.mark.parametrize("backend", ["numpy", "fused"])
def test_cg_iterations_allocate_no_array(backend, small_ufunc_buffers):
    """Iterations 6-25 of a 256^2 CG never hold a new block as large as
    one row block of a field (any whole-array temporary is 3x that)."""
    n = 256
    grid, kxg, kyg, bg = crooked_pipe_system(n)
    row_block = _block_rows(n, n, 8, streams=8) * n * 8
    assert row_block < n * n * 8 // 3
    for k in _instances(backend):
        growth = _steady_state_growth(
            serial_operator(grid, kxg, kyg).with_kernels(k), bg)
        assert growth < row_block, \
            f"{growth} bytes allocated inside steady-state iterations"


@pytest.mark.parametrize("backend", ["numpy", "fused"])
def test_blas1_tail_on_3d_fields_allocates_no_array(backend,
                                                    small_ufunc_buffers):
    """The 3-D operator is the same class on the same kernels: a 40^3 CG
    — stencil, span updates, dots — never holds a new block as large as
    one block of planes of a field (a quarter of it)."""
    n = 40
    grid, *faces, bg = crooked_duct_system(n)
    for k in _instances(backend):
        growth = _steady_state_growth(
            serial_operator(grid, *faces).with_kernels(k), bg)
        assert growth < _block_rows(n, n * n, 8, streams=8) * n * n * 8, \
            f"{growth} bytes allocated inside steady-state iterations"


def test_workspace_is_shared_across_extents():
    """Four regions of different extents (CPPCG's shrinking matrix-powers
    bounds) leave every workspace slot a backend uses — block scratch and
    dot operands for the NumPy replay, the dot operands alone for the
    compiled loops — no larger than the largest needs: its rows at the
    padded pitch (span scratch keeps the halo columns)."""
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
        assert len(used) == (2 if isinstance(k, CompiledBackend) else 4)
        assert all(pool.nbytes <= largest for pool in used)


# -- full-solve differential: the eight COMM_CONTRACT configurations -----------

#: Mirrors ``repro.analysis.verify.default_specs`` — same solver family,
#: same matrix-powers depths, same deflation blocking.
SOLVE_CONFIGS = [
    ("cg", SolverOptions(solver="cg", eps=1e-8, max_iters=500)),
    ("cg_fused", SolverOptions(solver="cg_fused", eps=1e-8, max_iters=500)),
    ("jacobi", SolverOptions(solver="jacobi", eps=1e-8, max_iters=300)),
    ("chebyshev", SolverOptions(solver="chebyshev", eps=1e-8, max_iters=500,
                                eigen_warmup_iters=8, check_interval=10)),
    ("chebyshev-depth4", SolverOptions(solver="chebyshev", eps=1e-8,
                                       max_iters=500, eigen_warmup_iters=8,
                                       check_interval=10, halo_depth=4)),
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
    """Routed solves reproduce the baseline's convergence trajectory.

    Same iteration counts (outer and inner) and — measured through the
    backend-neutral true-residual referee — the same relative residual to
    well below the solve tolerance.
    """
    grid, kxg, kyg, bg = crooked_pipe_system(16)
    results = {}
    for name in ("numpy", backend):
        o = replace(opt, kernel_backend=name, true_residual=True)
        op = serial_operator(grid, kxg, kyg, halo=o.required_field_halo)
        b = Field.from_global(op.tile, op.halo, bg)
        results[name] = solve_linear(op, b, options=o)
    ref, alt = results["numpy"], results[backend]
    assert alt.converged == ref.converged
    assert alt.iterations == ref.iterations, \
        f"{label}[{backend}] changed the iteration count"
    assert alt.inner_iterations == ref.inner_iterations
    assert ref.true_relative_residual is not None
    assert alt.true_relative_residual == pytest.approx(
        ref.true_relative_residual, rel=1e-6, abs=1e-14)


#: (outer, inner) iteration counts of SOLVE_CONFIGS on the 16^2 crooked
#: pipe as measured before the baseline was blocked (the ``chebyshev``
#: configurations run out their budget: 8 warm-up iterations are too few
#: for usable bounds at this size, on either side of the change).
PINNED_ITERATIONS = {
    "cg": (23, 0), "cg_fused": (23, 0), "jacobi": (51, 0),
    "chebyshev": (500, 0), "chebyshev-depth4": (500, 0),
    "ppcg": (12, 52), "ppcg-depth4": (9, 80), "dcg": (23, 0),
}


#: sha256 (first 16 hex digits) of the padded solution of the two solvers
#: that updated ``x``/``r``/``p`` with whole-array temporaries outside the
#: backends until they were routed through ``Field.axpy``/``aypx`` —
#: recorded before the routing, with the iteration counts above.
PINNED_SOLUTIONS = {"jacobi": "bf37c77db26be68b", "dcg": "2a6dd2423d2bb951"}


@pytest.mark.parametrize("label,opt", SOLVE_CONFIGS,
                         ids=[name for name, _ in SOLVE_CONFIGS])
def test_full_solve_identical_to_oracle(label, opt):
    """Every COMM_CONTRACT configuration, solved through the blocked
    baseline, reproduces the whole-array oracle's trajectory exactly:
    the pinned iteration counts and the same true relative residual,
    digit for digit."""
    grid, kxg, kyg, bg = crooked_pipe_system(16)
    o = replace(opt, kernel_backend="numpy", true_residual=True)
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


# -- registry, options and deck plumbing ---------------------------------------


class TestRegistry:
    def test_known_and_available(self):
        assert DEFAULT_BACKEND == "numpy"
        assert set(available_backends()) <= set(KNOWN_BACKENDS)
        assert {"numpy", "fused"} <= set(available_backends())

    def test_backend_status_reports_every_known_backend(self):
        status = backend_status()
        assert set(status) == set(KNOWN_BACKENDS)
        assert status["numpy"] == "" and status["fused"] == ""
        for name in available_backends():
            assert status[name] == ""
            assert get_backend(name).name == name

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            get_backend("cuda")

    def test_unavailable_numba_raises_with_install_hint(self):
        """The optional backend that never ran here left the registry:
        its name is unknown everywhere, and the error says what is known."""
        from repro.physics.deck import parse_deck_text
        assert "numba" not in KNOWN_BACKENDS
        for ask in (lambda: get_backend("numba"),
                    lambda: SolverOptions(kernel_backend="numba"),
                    lambda: parse_deck_text("tl_kernel_backend=numba")):
            with pytest.raises(ConfigurationError) as refusal:
                ask()
            assert all(name in str(refusal.value) for name in KNOWN_BACKENDS)

    def test_reduction_tolerance_scales_with_dtype(self):
        rng = np.random.default_rng(7)
        a64 = rng.standard_normal(1000)
        b64 = rng.standard_normal(1000)
        t32 = reduction_tolerance(a64.astype(np.float32),
                                  b64.astype(np.float32))
        t64 = reduction_tolerance(a64, b64)
        assert 0 < t64 < t32  # wider envelope in the coarser dtype


class TestOptionsAndDeck:
    def test_options_accept_known_backends(self):
        for name in KNOWN_BACKENDS:
            assert SolverOptions(kernel_backend=name).kernel_backend == name

    def test_options_reject_unknown_backend(self):
        with pytest.raises(ConfigurationError):
            SolverOptions(kernel_backend="cuda")

    def test_deck_key_roundtrip(self):
        from repro.physics.deck import parse_deck_text
        deck = parse_deck_text("tl_kernel_backend=fused")
        assert deck.tl_kernel_backend == "fused"
        assert parse_deck_text("").tl_kernel_backend == "numpy"

    def test_deck_key_rejects_unknown_backend(self):
        from repro.physics.deck import parse_deck_text
        with pytest.raises(ConfigurationError,
                           match="unknown tl_kernel_backend"):
            parse_deck_text("tl_kernel_backend=cuda")
