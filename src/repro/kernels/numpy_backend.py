"""The ``numpy`` baseline backend: cache-blocked, allocation-free NumPy.

Per element the arithmetic is the original whole-array expressions,
operation for operation, so the results stay the reference bit patterns
every other backend is proven against; a steady-state call merely
allocates no array (``docs/kernels.md`` has the measurements):

- **Blocked.**  The stencil and ``axpy`` replay their expression with
  ``out=`` ufuncs over blocks of rows (2-D) or planes (3-D) whose
  working set fits L2.
- **Contiguous spans.**  A block is walked as one 1-D run of memory,
  the halo cells between two rows (and two planes) of the region
  included, not as a strided window — the 7-point pass is the 5-point
  pass with two more offsets, ``± one plane`` — and only the region's
  cells are stored.  The operands therefore share one C-contiguous
  padded shape, as an operator's fields do.
- **Cached.**  The stencil diagonal (4 of 13 ufunc passes in 2-D, 6 of
  19 in 3-D) is computed once per coefficient set — only for **frozen**
  arrays (``flags.writeable`` False, as an operator makes its
  coefficients), held by reference and recognised with ``is``; writeable
  ones are recomputed by the same body on every call.  The index
  arithmetic of a call (strides, block list, span bounds) is worked out
  once per ``(padded shape, bounds)``.
- **Reductions still copy.**  The reference is one ``np.dot`` of two
  contiguous vectors and BLAS partial sums depend on the length, so
  strided operands are copied whole into workspace (once when both are
  one array); a blocked dot would change bits.

The workspace is one grow-only flat pool per slot, viewed per call, so
regions of different extents (CPPCG's extended bounds) share memory.
"""

from __future__ import annotations

import math
from operator import is_
from typing import NamedTuple

import numpy as np

from repro.kernels.base import KernelBackend, stencil_diagonal
from repro.utils.errors import ConfigurationError

#: Target bytes for one block's working set (operands + scratch), well
#: inside a typical per-core L2 — and the floor on rows per block, below
#: which per-block Python dispatch outweighs any locality win.
_BLOCK_BYTES = 1 << 20
_MIN_BLOCK_ROWS = 8

#: Workspace slots: block product, block accumulator and the two
#: whole-region dot operands.
_TMP, _ACC, _DOT_A, _DOT_B = range(4)


def _block_rows(nrows: int, ncols: int, itemsize: int, streams: int) -> int:
    """Rows per block so ``streams`` arrays of the block fit the target."""
    per_row = max(1, streams * ncols * itemsize)
    return max(_MIN_BLOCK_ROWS, min(nrows, _BLOCK_BYTES // per_row))


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """The reference reduction, of two contiguous arrays; inf/NaN goes to
    the solvers' guards (they screen every reduction), not to a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.dot(a.reshape(-1), b.reshape(-1)))


def _stencil_passes(diag, taps, p_c, acc, tmp) -> None:
    """``acc = A p`` over one block of same-length operand views: the
    whole-array expression replayed per element, ``taps`` being its
    ``(coefficient, neighbour)`` pairs — slowest axis first, high face
    before low.  9 ufunc passes in 2-D and 13 in 3-D, 4 and 6 more when
    ``diag`` is None (``k + 1.0`` is ``1.0 + k`` in IEEE)."""
    if diag is None:
        np.add(taps[0][0], 1.0, out=acc)
        for k, _ in taps[1:]:
            np.add(acc, k, out=acc)
        diag = acc
    np.multiply(diag, p_c, out=acc)
    for k, q in taps:
        np.multiply(k, q, out=tmp)
        np.subtract(acc, tmp, out=acc)


def _operands(args: tuple, extra: int = 0) -> tuple:
    """A stencil chain's positional arguments by role, for dimension
    ``d = kx.ndim``: ``(faces, p, out, the chain's extra operands,
    bounds)`` of ``(kx, ky[, kz], p, out, *extra, lo, hi per axis)``."""
    d = args[0].ndim
    return (args[:d], args[d], args[d + 1], args[d + 2:d + 2 + extra],
            args[d + 2 + extra:])


class _Geometry(NamedTuple):
    """The index arithmetic of one stencil call: everything that follows
    from the padded shape, the bounds, the itemsize and the stream count
    (deriving it per call cost more than a 32^2 stencil's passes)."""

    shape: tuple     # the region's extents
    offsets: tuple   # per tap: flat offsets of its coefficient, neighbour
    scratch: tuple   # block scratch as an array: (block, *padded[1:]) ...
    inner: tuple     # ... and the region's cells of it
    blocks: tuple    # per block: (its slice of the region along axis 0,
    #                  its window of the padded array, span start, stop)


def _geometry(padded: tuple, bounds: tuple, itemsize: int,
              streams: int) -> _Geometry:
    if len(bounds) != 2 * len(padded):
        raise ConfigurationError(
            f"a {len(padded)}-D stencil takes {2 * len(padded)} loop "
            f"bounds, got {len(bounds)}")
    lo, hi = bounds[::2], bounds[1::2]
    shape = tuple(h - l for l, h in zip(lo, hi))
    strides = [math.prod(padded[a + 1:]) for a in range(len(padded))]
    block = _block_rows(shape[0], math.prod(shape[1:]), itemsize, streams)
    tail = tuple(slice(l, h) for l, h in zip(lo[1:], hi[1:]))
    # One index of axis 0, from its first region cell to its last.
    first = sum(l * st for l, st in zip(lo[1:], strides[1:]))
    run = sum((n - 1) * st for n, st in zip(shape[1:], strides[1:])) + 1
    blocks = []
    for b0 in range(lo[0], hi[0], block):
        b1 = min(b0 + block, hi[0])
        s0 = b0 * strides[0] + first
        blocks.append((slice(b0 - lo[0], b1 - lo[0]), (slice(b0, b1), *tail),
                       s0, s0 + (b1 - b0 - 1) * strides[0] + run))
    return _Geometry(
        shape, tuple(o for st in strides for o in ((st, st), (0, -st))),
        (block, *padded[1:]), (slice(None), *(slice(0, n) for n in shape[1:])),
        tuple(blocks))


def _require_layout(shape: tuple, *arrays: np.ndarray) -> None:
    for a in arrays:
        if a.shape != shape or not a.flags.c_contiguous:
            raise ConfigurationError(
                "stencil operands must share one C-contiguous padded "
                f"shape: got {a.shape} (C-contiguous: "
                f"{a.flags.c_contiguous}) beside {shape}")


class NumpyBackend(KernelBackend):
    """Blocked NumPy kernels producing the baseline bit patterns."""

    name = "numpy"

    def __init__(self) -> None:
        # Per slot: the grow-only byte pool and its latest typed view.
        self._pools = [None] * 4
        self._views = [None] * 4
        # The frozen coefficient set the cached diagonal belongs to, its
        # flat views (one per tap) and that diagonal, flat.
        self._faces, self._coeffs, self._diag = (), None, None
        self._geometries = {}

    def _buf(self, slot: int, shape: tuple, dtype: np.dtype) -> np.ndarray:
        """Workspace slot ``slot`` viewed as ``shape``/``dtype``."""
        view = self._views[slot]
        if view is None or view.shape != shape or view.dtype != dtype:
            size = math.prod(shape) * dtype.itemsize
            pool = self._pools[slot]
            if pool is None or pool.size < size:
                pool = self._pools[slot] = np.empty(size, dtype=np.uint8)
            view = self._views[slot] = pool[:size].view(dtype).reshape(shape)
        return view

    def _contiguous(self, slot: int, a: np.ndarray) -> np.ndarray:
        """``a`` itself when contiguous, else its copy in slot ``slot``."""
        if a.flags.c_contiguous:
            return a
        buf = self._buf(slot, a.shape, a.dtype)
        np.copyto(buf, a)
        return buf

    def _coefficients(self, faces: tuple, shape: tuple) -> tuple:
        """Flat views of ``faces`` (each of ``shape``) — one per tap,
        slowest axis first — and the flat centre coefficient
        (:func:`stencil_diagonal`) for a frozen set, else None."""
        if len(faces) == len(self._faces) and all(map(is_, faces,
                                                      self._faces)):
            return self._coeffs, self._diag
        _require_layout(shape, *faces)
        coeffs = [k.reshape(-1) for k in reversed(faces) for _ in range(2)]
        if any(k.flags.writeable for k in faces):
            return coeffs, None
        self._faces, self._coeffs = faces, coeffs
        self._diag = stencil_diagonal(*faces).reshape(-1)
        return coeffs, self._diag

    def _plan(self, faces, p, out, bounds, streams, *more) -> tuple:
        """Check one stencil call's operands (``more``: a chain's other
        field operands); returns its geometry, coefficient views and
        diagonal for :meth:`_stencil_blocks`."""
        if out is p:
            raise ConfigurationError(
                "stencil output must not alias its input (out is p)")
        shape = p.shape
        _require_layout(shape, p, out, *more)
        coeffs, diag = self._coefficients(faces, shape)
        key = (shape, bounds, p.itemsize, streams)
        try:
            return self._geometries[key], coeffs, diag
        except KeyError:
            g = self._geometries[key] = _geometry(*key)
            return g, coeffs, diag

    def _stencil_blocks(self, g: _Geometry, coeffs, diag, p, out):
        """``out[R] = (A p)[R]`` by blocks along the slowest axis; yields
        ``(at, window, acc, tmp)`` per block — its slice of the region
        along that axis, its window of the padded arrays, ``(A p)[window]``
        in cache-hot scratch and free scratch of that shape.

        Every pass of a block runs over the one 1-D run of memory from
        its first region cell to its last: the halo cells in between are
        read and computed on, into scratch of the operands' pitch, and
        only the region's cells of that scratch (``acc``/``tmp``, strided
        windows of it) are copied to ``out``.  What lands in between is
        arithmetic on halo cells, so its overflow/invalid flags are not
        reported."""
        pf = p.reshape(-1)
        accf = self._buf(_ACC, g.scratch, out.dtype)
        tmpf = self._buf(_TMP, g.scratch, out.dtype)
        accs, tmps = accf[g.inner], tmpf[g.inner]
        accf, tmpf = accf.reshape(-1), tmpf.reshape(-1)
        for at, window, s0, s1 in g.blocks:
            with np.errstate(over="ignore", invalid="ignore"):
                _stencil_passes(
                    None if diag is None else diag[s0:s1],
                    [(k[s0 + dk:s1 + dk], pf[s0 + dp:s1 + dp])
                     for k, (dk, dp) in zip(coeffs, g.offsets)],
                    pf[s0:s1], accf[:s1 - s0], tmpf[:s1 - s0])
            acc = accs[:at.stop - at.start]
            out[window] = acc
            yield at, window, acc, tmps[:len(acc)]

    def stencil_apply(self, *args):
        faces, p, out, _, bounds = _operands(args)
        plan = self._plan(faces, p, out, bounds, 6)
        for _ in self._stencil_blocks(*plan, p, out):
            pass

    def apply_dot(self, *args):
        faces, p, out, _, bounds = _operands(args)
        g, *coeffs = self._plan(faces, p, out, bounds, 8)
        pr = self._buf(_DOT_A, g.shape, p.dtype)
        wr = self._buf(_DOT_B, g.shape, out.dtype)
        for at, window, acc, _ in self._stencil_blocks(g, *coeffs, p, out):
            pr[at] = p[window]
            wr[at] = acc
        return _dot(pr, wr)

    def apply_axpy_dot(self, *args):
        faces, p, out, (y, alpha), bounds = _operands(args, 2)
        g, *coeffs = self._plan(faces, p, out, bounds, 8, y)
        yr = self._buf(_DOT_A, g.shape, y.dtype)
        for at, window, acc, tmp in self._stencil_blocks(g, *coeffs, p, out):
            yb = y[window]
            np.multiply(acc, alpha, out=tmp)
            np.add(yb, tmp, out=yb)
            yr[at] = yb
        return _dot(yr, yr)

    def dot(self, a, b):
        fa = self._contiguous(_DOT_A, a)
        return _dot(fa, fa if b is a else self._contiguous(_DOT_B, b))

    def axpy(self, y, alpha, x):
        nrows = y.shape[0]
        bs = _block_rows(nrows, y.size // max(1, nrows), y.itemsize, 3)
        tmps = self._buf(_TMP, (bs,) + y.shape[1:], y.dtype)
        for b0 in range(0, nrows, bs):
            yb = y[b0:b0 + bs]
            tmp = tmps[:len(yb)]
            np.multiply(x[b0:b0 + bs], alpha, out=tmp)
            np.add(yb, tmp, out=yb)
