"""Kernel-equivalence battery: every backend vs the ``numpy`` baseline.

The numerical policy under test (``docs/kernels.md``, ``repro.kernels.base``):

- **fp-order-preserving kernels** (``stencil_apply``, ``axpy``, the field
  updates of ``apply_axpy_dot``, ``pack_halo``/``unpack_halo``) must match
  the baseline **bit for bit** for every dtype, shape and halo depth;
- **reductions** (``dot``, ``norm``, the scalars of ``apply_dot`` /
  ``apply_axpy_dot``) may reassociate and must agree within the documented
  bound ``reduction_tolerance`` (= 64 * eps(dtype) * sum|a_i b_i|).

Both halves run differentially over a dtype x mesh-shape x halo-depth
grid — including 1-cell-wide tiles, non-square regions and a multi-block
shape large enough to force the fused backend through its cache-blocked
path — for every registered backend.  A full-solve differential then
proves ``kernel_backend="fused"`` reproduces the baseline's iteration
count and true relative residual for all eight COMM_CONTRACT solver
configurations.

The baseline itself is blocked and allocation-free; what defines its bit
patterns is the whole-array one-liner it replaced, kept here as the
test-only :class:`OracleBackend`.  The ``numpy`` backend must match it
**exactly** — fields and reductions — kernel by kernel and over full
solves, and a steady-state CG iteration on it must allocate no array.
"""

import hashlib
import tracemalloc

from dataclasses import replace

import numpy as np
import pytest

from repro.comm import SerialComm
from repro.kernels import (
    DEFAULT_BACKEND,
    KNOWN_BACKENDS,
    KernelBackend,
    available_backends,
    backend_status,
    get_backend,
    reduction_tolerance,
)
from repro.kernels.numpy_backend import _block_rows
from repro.mesh import Field, Grid2D, decompose
from repro.solvers import Defences, SolverOptions, cg_solve, solve_linear
from repro.testing import crooked_pipe_system, serial_operator
from repro.utils.errors import ConfigurationError

from tests.helpers import bits

BASELINE = get_backend("numpy")

#: Every registered non-baseline backend is tested; a backend that cannot
#: be imported (numba absent) is skipped by not appearing here.
OTHERS = [n for n in available_backends() if n != "numpy"]

#: Interior shapes: square, non-square both ways, 1-cell-wide tiles both
#: ways, and one shape whose working set exceeds the fused backend's
#: 1 MiB block budget (so the multi-block path is exercised, not just the
#: single-block fast path).
SHAPES = [(13, 7), (7, 13), (1, 9), (9, 1), (257, 129)]
HALOS = [1, 2, 3]
DTYPES = ["float32", "float64"]


def _system(shape, halo, dtype):
    """Random padded arrays (kx, ky, p, y) for one kernel-level case."""
    ny, nx = shape
    rng = np.random.default_rng(20170905 + 1000 * ny + 10 * nx + halo)
    dt = np.dtype(dtype)
    pad = (ny + 2 * halo, nx + 2 * halo)
    kx = rng.uniform(0.1, 2.0, size=pad).astype(dt)
    ky = rng.uniform(0.1, 2.0, size=pad).astype(dt)
    p = rng.standard_normal(pad).astype(dt)
    y = rng.standard_normal(pad).astype(dt)
    return kx, ky, p, y


def _bound_sets(shape, halo):
    """Loop-bound tuples to cover: the interior, and (when the halo is
    deep enough) the grown region a matrix-powers step computes."""
    ny, nx = shape
    bounds = [(halo, halo + ny, halo, halo + nx)]
    if halo > 1:
        ext = halo - 1
        bounds.append((halo - ext, halo + ny + ext,
                       halo - ext, halo + nx + ext))
    return bounds


def _grid_cases():
    for shape in SHAPES:
        for halo in HALOS:
            for dtype in DTYPES:
                yield pytest.param(shape, halo, dtype,
                                   id=f"{shape[0]}x{shape[1]}-h{halo}-{dtype}")


GRID = list(_grid_cases())


@pytest.mark.parametrize("backend", OTHERS)
@pytest.mark.parametrize("shape,halo,dtype", GRID)
class TestKernelGrid:
    """Differential battery over the dtype x shape x halo grid."""

    def test_stencil_apply_bitwise(self, shape, halo, dtype, backend):
        kx, ky, p, _ = _system(shape, halo, dtype)
        k = get_backend(backend)
        for r0, r1, c0, c1 in _bound_sets(shape, halo):
            ref = np.zeros_like(p)
            out = np.zeros_like(p)
            BASELINE.stencil_apply(kx, ky, p, ref, r0, r1, c0, c1)
            k.stencil_apply(kx, ky, p, out, r0, r1, c0, c1)
            assert out.dtype == ref.dtype
            assert np.array_equal(out, ref), \
                f"stencil_apply[{backend}] drifted from baseline bits"

    def test_apply_dot_field_bitwise_scalar_bounded(self, shape, halo,
                                                    dtype, backend):
        kx, ky, p, _ = _system(shape, halo, dtype)
        k = get_backend(backend)
        for r0, r1, c0, c1 in _bound_sets(shape, halo):
            ref = np.zeros_like(p)
            out = np.zeros_like(p)
            d_ref = BASELINE.apply_dot(kx, ky, p, ref, r0, r1, c0, c1)
            d = k.apply_dot(kx, ky, p, out, r0, r1, c0, c1)
            assert np.array_equal(out, ref)
            tol = reduction_tolerance(p[r0:r1, c0:c1], ref[r0:r1, c0:c1])
            assert abs(d - d_ref) <= tol, \
                f"apply_dot[{backend}] scalar outside the documented bound"

    def test_apply_axpy_dot_updates_bitwise_scalar_bounded(
            self, shape, halo, dtype, backend):
        kx, ky, p, y = _system(shape, halo, dtype)
        k = get_backend(backend)
        alpha = -1.0  # the Jacobi residual chain: y = b - A p
        for r0, r1, c0, c1 in _bound_sets(shape, halo):
            ref_out, ref_y = np.zeros_like(p), y.copy()
            out, yw = np.zeros_like(p), y.copy()
            d_ref = BASELINE.apply_axpy_dot(kx, ky, p, ref_out, ref_y,
                                            alpha, r0, r1, c0, c1)
            d = k.apply_axpy_dot(kx, ky, p, out, yw, alpha, r0, r1, c0, c1)
            assert np.array_equal(out, ref_out)
            assert np.array_equal(yw, ref_y), \
                f"apply_axpy_dot[{backend}] y-update drifted from baseline"
            yr = ref_y[r0:r1, c0:c1]
            assert abs(d - d_ref) <= reduction_tolerance(yr, yr)

    def test_dot_within_reduction_bound(self, shape, halo, dtype, backend):
        _, _, p, y = _system(shape, halo, dtype)
        ny, nx = shape
        a = p[halo:halo + ny, halo:halo + nx]
        b = y[halo:halo + ny, halo:halo + nx]
        d_ref = BASELINE.dot(a, b)
        d = get_backend(backend).dot(a, b)
        assert abs(d - d_ref) <= reduction_tolerance(a, b)

    def test_norm_within_reduction_bound(self, shape, halo, dtype, backend):
        _, _, p, _ = _system(shape, halo, dtype)
        ny, nx = shape
        a = p[halo:halo + ny, halo:halo + nx]
        n_ref = BASELINE.norm(a)
        n = get_backend(backend).norm(a)
        # norm = sqrt(<a,a>); compare the squares against the dot bound.
        assert abs(n * n - n_ref * n_ref) <= reduction_tolerance(a, a)

    def test_axpy_bitwise(self, shape, halo, dtype, backend):
        _, _, p, y = _system(shape, halo, dtype)
        ny, nx = shape
        x = p[halo:halo + ny, halo:halo + nx]
        for alpha in (0.75, -0.75, 1.0, -1.0):
            ref = y.copy()
            yw = y.copy()
            BASELINE.axpy(ref[halo:halo + ny, halo:halo + nx], alpha, x)
            get_backend(backend).axpy(
                yw[halo:halo + ny, halo:halo + nx], alpha, x)
            assert np.array_equal(yw, ref), \
                f"axpy[{backend}] alpha={alpha} drifted from baseline bits"

    def test_pack_unpack_halo_bitwise(self, shape, halo, dtype, backend):
        _, _, p, y = _system(shape, halo, dtype)
        ny, nx = shape
        k = get_backend(backend)
        # Every face a halo exchange packs: row bands and column bands.
        faces = [(slice(halo, 2 * halo), slice(halo, halo + nx)),
                 (slice(ny, ny + halo), slice(halo, halo + nx)),
                 (slice(halo, halo + ny), slice(halo, 2 * halo)),
                 (slice(halo, halo + ny), slice(nx, nx + halo))]
        for rows, cols in faces:
            ref = BASELINE.pack_halo(p, rows, cols)
            buf = k.pack_halo(p, rows, cols)
            assert buf.flags["C_CONTIGUOUS"]
            assert buf.dtype == ref.dtype
            assert np.array_equal(buf, ref)
            a_ref, a = y.copy(), y.copy()
            BASELINE.unpack_halo(a_ref, rows, cols, ref)
            k.unpack_halo(a, rows, cols, buf)
            assert np.array_equal(a, a_ref)


# -- the baseline against the whole-array oracle it replaced ---------------------


class OracleBackend(KernelBackend):
    """The pre-blocking ``numpy`` backend, verbatim: whole-array
    expressions, ~9 temporaries per stencil, ``ravel()`` copies per dot.

    Test-only.  It reports the baseline's name so ``solve_linear`` keeps
    it in place when a solve asks for ``kernel_backend="numpy"``.
    """

    name = "numpy"

    def stencil_apply(self, kx, ky, p, out, r0, r1, c0, c1):
        pc = p[r0:r1, c0:c1]
        ky_lo = ky[r0:r1, c0:c1]
        ky_hi = ky[r0 + 1:r1 + 1, c0:c1]
        kx_lo = kx[r0:r1, c0:c1]
        kx_hi = kx[r0:r1, c0 + 1:c1 + 1]
        out[r0:r1, c0:c1] = (
            (1.0 + ky_hi + ky_lo + kx_hi + kx_lo) * pc
            - ky_hi * p[r0 + 1:r1 + 1, c0:c1]
            - ky_lo * p[r0 - 1:r1 - 1, c0:c1]
            - kx_hi * p[r0:r1, c0 + 1:c1 + 1]
            - kx_lo * p[r0:r1, c0 - 1:c1 - 1]
        )

    def apply_dot(self, kx, ky, p, out, r0, r1, c0, c1):
        self.stencil_apply(kx, ky, p, out, r0, r1, c0, c1)
        return float(np.dot(p[r0:r1, c0:c1].ravel(),
                            out[r0:r1, c0:c1].ravel()))

    def apply_axpy_dot(self, kx, ky, p, out, y, alpha, r0, r1, c0, c1):
        self.stencil_apply(kx, ky, p, out, r0, r1, c0, c1)
        yr = y[r0:r1, c0:c1]
        yr += alpha * out[r0:r1, c0:c1]
        return float(np.dot(yr.ravel(), yr.ravel()))

    def dot(self, a, b):
        return float(np.dot(a.ravel(), b.ravel()))

    def axpy(self, y, alpha, x):
        y += alpha * x


ORACLE = OracleBackend()

#: The battery's shapes plus one of >= 512 rows that every blocked kernel
#: walks in several blocks (8 for the float64 stencil).
ORACLE_SHAPES = SHAPES + [(520, 300)]


def _all_bound_sets(shape, halo):
    """The interior and every extended region the halo allows."""
    ny, nx = shape
    return [(halo - e, halo + ny + e, halo - e, halo + nx + e)
            for e in range(halo)]


@pytest.mark.parametrize("frozen", [False, True], ids=["writeable", "frozen"])
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("halo", HALOS)
@pytest.mark.parametrize("shape", ORACLE_SHAPES,
                         ids=[f"{ny}x{nx}" for ny, nx in ORACLE_SHAPES])
def test_baseline_bit_identical_to_oracle(shape, halo, dtype, frozen):
    """One backend instance, every region in turn (so workspace and the
    cached diagonal are reused across extents), every kernel exact."""
    kx, ky, p, y = _system(shape, halo, dtype)
    kx.flags.writeable = ky.flags.writeable = not frozen
    k = get_backend("numpy")
    for bounds in _all_bound_sets(shape, halo) * 2:
        r0, r1, c0, c1 = bounds
        ref, out = np.zeros_like(p), np.zeros_like(p)
        ORACLE.stencil_apply(kx, ky, p, ref, *bounds)
        k.stencil_apply(kx, ky, p, out, *bounds)
        assert out.dtype == ref.dtype and np.array_equal(out, ref)

        ref, out = np.zeros_like(p), np.zeros_like(p)
        assert (k.apply_dot(kx, ky, p, out, *bounds)
                == ORACLE.apply_dot(kx, ky, p, ref, *bounds))
        assert np.array_equal(out, ref)

        ref, out = np.zeros_like(p), np.zeros_like(p)
        ref_y, yw = y.copy(), y.copy()
        assert (k.apply_axpy_dot(kx, ky, p, out, yw, -0.75, *bounds)
                == ORACLE.apply_axpy_dot(kx, ky, p, ref, ref_y, -0.75,
                                         *bounds))
        assert np.array_equal(out, ref) and np.array_equal(yw, ref_y)

        a, b = p[r0:r1, c0:c1], y[r0:r1, c0:c1]
        assert k.dot(a, b) == ORACLE.dot(a, b)
        assert k.dot(a, a) == ORACLE.dot(a, a)
        assert k.norm(a) == float(np.sqrt(ORACLE.dot(a, a)))
        ref_y, yw = y.copy(), y.copy()
        ORACLE.axpy(ref_y[r0:r1, c0:c1], 0.375, a)
        k.axpy(yw[r0:r1, c0:c1], 0.375, a)
        assert np.array_equal(yw, ref_y)


# -- contiguous spans: nothing outside the region ever changes -------------------
#
# The baseline's passes run over 1-D spans of the padded buffers, halo
# cells between two region rows included, and ``Field.axpy``/``aypx``
# update such a span in place.  The invariant that makes that legal:
# every cell outside the region keeps its *bits* — whatever a stale halo
# holds — and the region equals the whole-array oracle exactly.

SPAN_SHAPES = [(9, 1), (1, 9), (13, 7), (520, 300)]
SPAN_HALOS = [1, 2, 3, 4]
SPAN_IDS = [f"{ny}x{nx}" for ny, nx in SPAN_SHAPES]


def _poison(a, keep):
    """``a`` with every cell outside the mask ``keep`` set, in turn, to
    NaN, +inf, -inf, -0.0 and the dtype's largest finite value."""
    vals = np.array([np.nan, np.inf, -np.inf, -0.0, np.finfo(a.dtype).max],
                    dtype=a.dtype)
    where = np.flatnonzero(~keep.ravel())
    a.reshape(-1)[where] = vals[np.arange(where.size) % vals.size]
    return a


def _region_mask(shape, rows, cols):
    mask = np.zeros(shape, dtype=bool)
    mask[rows, cols] = True
    return mask


def _windowed(a):
    """``a``'s values as a window of a wider buffer: not C-contiguous."""
    wide = np.zeros((a.shape[0], a.shape[1] + 3), dtype=a.dtype)
    wide[:, :a.shape[1]] = a
    return wide[:, :a.shape[1]]


#: Operand layouts of a stencil chain.  ``padded`` is an operator's (one
#: contiguous shape: the span body); the other two do not share a pitch
#: and take the general 2-D body — face-staggered coefficients, ``kx`` a
#: column and ``ky`` a row larger than ``p``, or a non-contiguous ``p``.
LAYOUTS = ["padded", "staggered", "windowed"]


def _check_stencil_chains(k, shape, halo, dtype, frozen, exact,
                          layout="padded"):
    """``out`` and ``y`` start as poison everywhere a chain may not
    write, ``p`` holds poison wherever the stencil does not read: after
    each chain of backend ``k`` every array equals the oracle's bit for
    bit — so nothing outside the region moved.  ``exact`` also holds the
    reductions to the oracle's value, not just its envelope."""
    kx, ky, p, y = _system(shape, halo, dtype)
    if layout == "staggered":
        kx, ky = np.pad(kx, ((0, 0), (0, 1))), np.pad(ky, ((0, 1), (0, 0)))
    kx.flags.writeable = ky.flags.writeable = not frozen
    for bounds in _all_bound_sets(shape, halo):
        r0, r1, c0, c1 = bounds
        region = _region_mask(p.shape, slice(r0, r1), slice(c0, c1))
        read = (region | _region_mask(p.shape, slice(r0 - 1, r1 + 1),
                                      slice(c0, c1))
                | _region_mask(p.shape, slice(r0, r1), slice(c0 - 1, c1 + 1)))
        pp = _poison(p.copy(), read)
        if layout == "windowed":
            pp = _windowed(pp)
        blank = _poison(np.zeros_like(p), np.zeros_like(region))
        yp = _poison(y.copy(), region)

        ref, out = blank.copy(), blank.copy()
        ORACLE.stencil_apply(kx, ky, pp, ref, *bounds)
        k.stencil_apply(kx, ky, pp, out, *bounds)
        assert np.array_equal(bits(out), bits(ref))

        ref, out = blank.copy(), blank.copy()
        d_ref = ORACLE.apply_dot(kx, ky, pp, ref, *bounds)
        d = k.apply_dot(kx, ky, pp, out, *bounds)
        assert np.array_equal(bits(out), bits(ref))
        assert abs(d - d_ref) <= (0.0 if exact else reduction_tolerance(
            pp[r0:r1, c0:c1], ref[r0:r1, c0:c1]))

        ref, out = blank.copy(), blank.copy()
        ref_y, yw = yp.copy(), yp.copy()
        d_ref = ORACLE.apply_axpy_dot(kx, ky, pp, ref, ref_y, -0.75, *bounds)
        d = k.apply_axpy_dot(kx, ky, pp, out, yw, -0.75, *bounds)
        assert np.array_equal(bits(out), bits(ref))
        assert np.array_equal(bits(yw), bits(ref_y))
        yr = ref_y[r0:r1, c0:c1]
        assert abs(d - d_ref) <= (0.0 if exact else
                                  reduction_tolerance(yr, yr))
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
    _check_stencil_chains(get_backend(backend), shape, halo, dtype, frozen,
                          exact=backend == "numpy")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("backend", ["numpy", "fused"])
@pytest.mark.parametrize("frozen", [False, True], ids=["writeable", "frozen"])
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("layout", LAYOUTS[1:])
@pytest.mark.parametrize("shape", SPAN_SHAPES, ids=SPAN_IDS)
def test_general_layouts_write_only_the_region(shape, layout, dtype, frozen,
                                               backend):
    """Operands that do not share a pitch take the 2-D body: the same
    bits as the oracle, the same untouched cells, every region of a
    depth-3 halo."""
    _check_stencil_chains(get_backend(backend), shape, 3, dtype, frozen,
                          exact=backend == "numpy", layout=layout)


def _span_tiles(shape):
    """Two tiles of interior ``shape``: the centre of a 3x3 decomposition
    (``region(e)`` grows on every side) and its corner (on two)."""
    ny, nx = shape
    tiles = decompose(Grid2D(3 * nx, 3 * ny), 9, factors=(3, 3))
    return tiles[4], tiles[0]


def _check_field_updates(field_cls, k, shape, halo, dtype):
    """``axpy`` and ``aypx`` of ``field_cls`` on every region ``0..halo``
    of two poisoned fields: the updated buffer equals the whole-array
    expression on the region and its old bits everywhere else; the other
    operand is untouched."""
    rng = np.random.default_rng(7 * shape[0] + shape[1] + halo)
    for tile in _span_tiles(shape):
        pad = (shape[0] + 2 * halo, shape[1] + 2 * halo)
        for ext in range(halo + 1):
            y, x = (field_cls(tile, halo,
                              rng.standard_normal(pad).astype(dtype))
                    for _ in range(2))
            rows, cols = y.region(ext)
            keep = _region_mask(pad, rows, cols)
            _poison(y.data, keep), _poison(x.data, keep)
            x_before = x.data.copy()

            ref = y.data.copy()
            ORACLE.axpy(ref[rows, cols], 0.375, x.data[rows, cols])
            y.axpy(0.375, x, k, ext)
            assert np.array_equal(bits(y.data), bits(ref))

            region = ref[rows, cols]
            region *= -0.75
            region += x.data[rows, cols]
            y.aypx(-0.75, x, ext)
            assert np.array_equal(bits(y.data), bits(ref))
            assert np.array_equal(bits(x.data), bits(x_before))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("backend", ["numpy", "fused", "oracle"])
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("halo", SPAN_HALOS)
@pytest.mark.parametrize("shape", SPAN_SHAPES, ids=SPAN_IDS)
def test_field_updates_write_only_the_region(shape, halo, dtype, backend):
    """Through either backend and the whole-array oracle, warning-free."""
    k = ORACLE if backend == "oracle" else get_backend(backend)
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


#: Seeded mutants of the span arithmetic (ROADMAP 4d): each must be
#: killed by the battery above.
SPAN_MUTANTS = {
    "right<->left": (
        "repro.kernels.numpy_backend",
        "pf[s0 + 1:s1 + 1], pf[s0 - 1:s1 - 1],",
        "pf[s0 - 1:s1 - 1], pf[s0 + 1:s1 + 1],"),
    "up<->down": (
        "repro.kernels.numpy_backend",
        "pf[s0 + pitch:s1 + pitch], pf[s0 - pitch:s1 - pitch],",
        "pf[s0 - pitch:s1 - pitch], pf[s0 + pitch:s1 + pitch],"),
    "span-one-short": (
        "repro.kernels.numpy_backend",
        "s1 = s0 + (b1 - b0 - 1) * pitch + w",
        "s1 = s0 + (b1 - b0 - 1) * pitch + w - 1"),
    "stencil-flags-reported": (
        "repro.kernels.numpy_backend",
        'with np.errstate(over="ignore", invalid="ignore"):\n'
        "                    _stencil_passes(",
        "with np.errstate():\n                    _stencil_passes("),
    "general-right<->left": (
        "repro.kernels.numpy_backend",
        "p[b0:b1, c0 + 1:c1 + 1], p[b0:b1, c0 - 1:c1 - 1],",
        "p[b0:b1, c0 - 1:c1 - 1], p[b0:b1, c0 + 1:c1 + 1],"),
    "general-taken-for-spans": (
        "repro.kernels.numpy_backend",
        "spans = (p.shape == kx.shape == ky.shape and p.flags.c_contiguous",
        "spans = (p.shape[0] == kx.shape[0] and p.flags.c_contiguous"),
    "gap-one-narrow": (
        "repro.mesh.field",
        "[:, :pitch - ncols]", "[:, :pitch - ncols - 1]"),
    "gaps-not-restored": (
        "repro.mesh.field",
        "np.copyto(y.gaps, y.saved)", "pass"),
    "field-flags-reported": (
        "repro.mesh.field",
        'with np.errstate(over="ignore", invalid="ignore"):\n'
        "                update(",
        "with np.errstate():\n                update("),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", SPAN_MUTANTS)
def test_span_mutants_are_killed(name):
    module_name, old, new = SPAN_MUTANTS[name]
    module = _mutant(module_name, old, new)
    with pytest.raises((AssertionError, RuntimeWarning, ValueError)):
        if module_name.endswith("field"):
            _check_field_updates(module.Field, BASELINE, (13, 7), 2,
                                 "float64")
        else:
            _check_stencil_chains(
                module.NumpyBackend(), (13, 7), 3, "float64", frozen=True,
                exact=True,
                layout="staggered" if name.startswith("general") else "padded")


@pytest.mark.parametrize("backend", ["numpy", "fused"])
def test_stencil_rejects_output_aliasing_input(backend):
    """The whole-array expression tolerated ``out is p``; the in-place
    blocked body cannot, and says so instead of computing garbage."""
    kx, ky, p, y = _system((13, 7), 1, "float64")
    k = get_backend(backend)
    with pytest.raises(ConfigurationError, match="alias"):
        k.stencil_apply(kx, ky, p, p, 1, 14, 1, 8)
    with pytest.raises(ConfigurationError, match="alias"):
        k.apply_dot(kx, ky, p, p, 1, 14, 1, 8)
    with pytest.raises(ConfigurationError, match="alias"):
        k.apply_axpy_dot(kx, ky, p, p, y, -1.0, 1, 14, 1, 8)


@pytest.mark.parametrize("backend", ["numpy", "fused"])
def test_overflowing_reduction_is_a_value_not_a_warning(backend):
    """An overflowed dot is inf for the solvers' guards to report; under
    this suite's filters a ``RuntimeWarning`` from a kernel is an error."""
    a = np.full((300, 300), 1e200)[1:-1, 1:-1]
    k = get_backend(backend)
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


@pytest.mark.parametrize("backend", ["numpy", "fused"])
def test_cg_iterations_allocate_no_array(backend, small_ufunc_buffers):
    """Iterations 6-25 of a 256^2 CG never hold a new block as large as
    one row block of a field (any whole-array temporary is 3x that)."""
    n = 256
    grid, kxg, kyg, bg = crooked_pipe_system(n)
    op = serial_operator(grid, kxg, kyg).with_kernels(backend)
    b = Field.from_global(op.tile, op.halo, bg)
    probe = _AllocationProbe(6, 25)
    try:
        result = cg_solve(op, b, eps=1e-30, max_iters=30,
                          defences=Defences(cancel=probe))
    finally:
        tracemalloc.stop()
    assert result.iterations == 30 and probe.growth is not None
    row_block = _block_rows(n, n, 8, streams=8) * n * 8
    assert row_block < n * n * 8 // 3
    assert probe.growth < row_block, \
        f"{probe.growth} bytes allocated inside steady-state iterations"


@pytest.mark.parametrize("backend", ["numpy", "fused"])
def test_blas1_tail_on_3d_fields_allocates_no_array(backend,
                                                    small_ufunc_buffers):
    """The 3D operator routes only its BLAS-1 tail through the backends;
    that tail (axpy, dots) is allocation-free on 3D interiors too."""
    from repro.mesh import Grid3D, decompose3d
    from repro.mesh.field3d import Field3D
    from repro.solvers import DistributedOperator3D
    n = 40
    tile = decompose3d(Grid3D(n, n, n), 1)[0]
    faces = [np.zeros(s) for s in ((n, n, n + 1), (n, n + 1, n),
                                   (n + 1, n, n))]
    op = DistributedOperator3D.from_global_faces(
        tile, 1, *faces, SerialComm()).with_kernels(backend)
    rng = np.random.default_rng(3)
    x, r = (Field3D.from_global(tile, 1, rng.standard_normal((n, n, n)))
            for _ in range(2))

    def tail():
        op.kernels.axpy(x.interior, 1e-3, r.interior)
        return op.dots([(r, x), (r, r)])

    tail()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(20):
            tail()
        growth = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert growth < _block_rows(n, n * n, 8, streams=3) * n * n * 8


def test_workspace_is_shared_across_extents():
    """Four regions of different extents (CPPCG's shrinking matrix-powers
    bounds) leave every workspace slot no larger than the largest needs:
    its rows at the padded pitch (span scratch keeps the halo columns)."""
    shape, halo = (96, 80), 4
    kx, ky, p, y = _system(shape, halo, "float64")
    kx.flags.writeable = ky.flags.writeable = False
    k = get_backend("numpy")
    out = np.zeros_like(p)
    for bounds in reversed(_all_bound_sets(shape, halo)):
        k.apply_dot(kx, ky, p, out, *bounds)
        k.apply_axpy_dot(kx, ky, p, out, y, -1.0, *bounds)
    assert len(_all_bound_sets(shape, halo)) == 4
    largest = (shape[0] + 2 * (halo - 1)) * (shape[1] + 2 * halo) * 8
    assert all(pool is not None and pool.nbytes <= largest
               for pool in k._pools)


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
    for kernels in (OracleBackend(), get_backend("numpy")):
        op = replace(serial_operator(grid, kxg, kyg,
                                     halo=o.required_field_halo),
                     kernels=kernels, exchanger=None)
        b = Field.from_global(op.tile, op.halo, bg)
        results.append(solve_linear(op, b, options=o))
    ref, new = results
    assert (new.iterations, new.inner_iterations) == PINNED_ITERATIONS[label]
    assert (ref.iterations, ref.inner_iterations) == PINNED_ITERATIONS[label]
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

    @pytest.mark.skipif("numba" in available_backends(),
                        reason="numba installed in this environment")
    def test_unavailable_numba_raises_with_install_hint(self):
        status = backend_status()
        assert "numba" in status["numba"]
        with pytest.raises(ConfigurationError, match="numba"):
            get_backend("numba")

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
            # Unavailable backends stay constructible: availability is
            # checked at solve time, not at options-validation time.
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
