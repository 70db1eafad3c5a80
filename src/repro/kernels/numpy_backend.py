"""The ``numpy`` baseline backend: cache-blocked, allocation-free NumPy.

Per element the arithmetic is the original whole-array expressions,
operation for operation, so the results stay the reference bit patterns
every other backend is proven against; a steady-state call merely
allocates no array (``docs/kernels.md`` has the measurements):

- **Blocked.**  The stencil and ``axpy`` replay their expression with
  ``out=`` ufuncs over row blocks whose working set fits L2.
- **Contiguous spans.**  Operands laid out alike (an operator's fields)
  are walked as 1-D runs of memory, halo columns between two rows of the
  region included, not as strided 2-D windows; only the region's cells
  are stored.
- **Cached.**  The stencil diagonal (4 of 13 ufunc passes) is computed
  once per coefficient pair — only for **frozen** arrays
  (``flags.writeable`` False, as an operator makes its coefficients),
  held by reference and recognised with ``is``; writeable ones are
  recomputed by the same body on every call.
- **Reductions still copy.**  The reference is one ``np.dot`` of two
  contiguous vectors and BLAS partial sums depend on the length, so
  strided operands are copied whole into workspace (once when both are
  one array); a blocked dot would change bits.

The workspace is one grow-only flat pool per slot, viewed per call, so
regions of different extents (CPPCG's extended bounds) share memory.
"""

from __future__ import annotations

import math

import numpy as np

from repro.kernels.base import KernelBackend
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


def _stencil_passes(diag, ky_hi, ky_lo, kx_hi, kx_lo, p_c, p_hi, p_lo,
                    p_right, p_left, acc, tmp) -> None:
    """``acc = A p`` over one block of same-shape operand views: the
    whole-array expression replayed per element in 9 ufunc passes, 13
    when ``diag`` is None (``ky_hi + 1.0`` is ``1.0 + ky_hi`` in IEEE)."""
    if diag is None:
        np.add(ky_hi, 1.0, out=acc)
        for k in (ky_lo, kx_hi, kx_lo):
            np.add(acc, k, out=acc)
        diag = acc
    np.multiply(diag, p_c, out=acc)
    for k, q in ((ky_hi, p_hi), (ky_lo, p_lo), (kx_hi, p_right),
                 (kx_lo, p_left)):
        np.multiply(k, q, out=tmp)
        np.subtract(acc, tmp, out=acc)


class NumpyBackend(KernelBackend):
    """Blocked NumPy kernels producing the baseline bit patterns."""

    name = "numpy"

    def __init__(self) -> None:
        # Per slot: the grow-only byte pool and its latest typed view.
        self._pools = [None] * 4
        self._views = [None] * 4
        # The frozen coefficient pair the cached diagonal belongs to.
        self._kx = self._ky = self._diag = None

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

    def _diagonal(self, kx: np.ndarray, ky: np.ndarray):
        """The stencil's centre coefficient per padded cell (wherever the
        cell's upper and right faces exist, 1 elsewhere) for a frozen
        pair, else None.  It has ``kx``'s shape, hence its pitch."""
        if kx is self._kx and ky is self._ky:
            return self._diag
        if kx.flags.writeable or ky.flags.writeable:
            return None
        rows = min(kx.shape[0], ky.shape[0] - 1)
        cols = min(kx.shape[1] - 1, ky.shape[1])
        core = (1.0 + ky[1:rows + 1, :cols] + ky[:rows, :cols]
                + kx[:rows, 1:cols + 1] + kx[:rows, :cols])
        self._diag = np.ones(kx.shape, dtype=core.dtype)
        self._diag[:rows, :cols] = core
        self._kx, self._ky = kx, ky
        return self._diag

    def _stencil_blocks(self, kx, ky, p, out, r0, r1, c0, c1, streams):
        """``out[R] = (A p)[R]`` by row blocks; yields ``(b0, b1, acc, tmp)``
        per block — ``(A p)[b0:b1, c0:c1]`` in cache-hot scratch and free
        scratch of that shape.

        Operands that are C-contiguous and share one shape (an operator's
        always are) are walked as **contiguous spans**: every pass of a
        block runs over the one 1-D run of memory from its first region
        cell to its last — the halo columns in between are read and
        computed on, into scratch of the operands' pitch — and only the
        region's columns of that scratch (``acc``/``tmp``, strided
        windows then) are copied to ``out``.  What lands between two rows
        is arithmetic on halo cells, so its overflow/invalid flags are
        not reported.  Any other operands take the same passes over 2-D
        windows and contiguous ``acc``/``tmp``."""
        if out is p:
            raise ConfigurationError(
                "stencil output must not alias its input (out is p)")
        w, dtype = c1 - c0, out.dtype
        bs = _block_rows(r1 - r0, w, p.itemsize, streams)
        diag = self._diagonal(kx, ky)
        spans = (p.shape == kx.shape == ky.shape and p.flags.c_contiguous
                 and kx.flags.c_contiguous and ky.flags.c_contiguous)
        if spans:
            pitch = p.shape[1]
            pf, kxf, kyf = p.ravel(), kx.ravel(), ky.ravel()
            df = None if diag is None else diag.ravel()
            accf = self._buf(_ACC, (bs * pitch,), dtype)
            tmpf = self._buf(_TMP, (bs * pitch,), dtype)
            accs, tmps = (a.reshape(bs, pitch)[:, :w] for a in (accf, tmpf))
        else:
            accs = self._buf(_ACC, (bs, w), dtype)
            tmps = self._buf(_TMP, (bs, w), dtype)
        for b0 in range(r0, r1, bs):
            b1 = min(b0 + bs, r1)
            acc, tmp = accs[:b1 - b0], tmps[:b1 - b0]
            if spans:
                s0 = b0 * pitch + c0
                s1 = s0 + (b1 - b0 - 1) * pitch + w
                with np.errstate(over="ignore", invalid="ignore"):
                    _stencil_passes(
                        None if df is None else df[s0:s1],
                        kyf[s0 + pitch:s1 + pitch], kyf[s0:s1],
                        kxf[s0 + 1:s1 + 1], kxf[s0:s1], pf[s0:s1],
                        pf[s0 + pitch:s1 + pitch], pf[s0 - pitch:s1 - pitch],
                        pf[s0 + 1:s1 + 1], pf[s0 - 1:s1 - 1],
                        accf[:s1 - s0], tmpf[:s1 - s0])
            else:
                _stencil_passes(
                    None if diag is None else diag[b0:b1, c0:c1],
                    ky[b0 + 1:b1 + 1, c0:c1], ky[b0:b1, c0:c1],
                    kx[b0:b1, c0 + 1:c1 + 1], kx[b0:b1, c0:c1],
                    p[b0:b1, c0:c1],
                    p[b0 + 1:b1 + 1, c0:c1], p[b0 - 1:b1 - 1, c0:c1],
                    p[b0:b1, c0 + 1:c1 + 1], p[b0:b1, c0 - 1:c1 - 1],
                    acc, tmp)
            out[b0:b1, c0:c1] = acc
            yield b0, b1, acc, tmp

    def stencil_apply(self, kx, ky, p, out, r0, r1, c0, c1):
        for _ in self._stencil_blocks(kx, ky, p, out, r0, r1, c0, c1, 6):
            pass

    def apply_dot(self, kx, ky, p, out, r0, r1, c0, c1):
        shape = (r1 - r0, c1 - c0)
        pr = self._buf(_DOT_A, shape, p.dtype)
        wr = self._buf(_DOT_B, shape, out.dtype)
        for b0, b1, acc, _ in self._stencil_blocks(kx, ky, p, out,
                                                   r0, r1, c0, c1, 8):
            pr[b0 - r0:b1 - r0] = p[b0:b1, c0:c1]
            wr[b0 - r0:b1 - r0] = acc
        return _dot(pr, wr)

    def apply_axpy_dot(self, kx, ky, p, out, y, alpha, r0, r1, c0, c1):
        yr = self._buf(_DOT_A, (r1 - r0, c1 - c0), y.dtype)
        for b0, b1, acc, tmp in self._stencil_blocks(kx, ky, p, out,
                                                     r0, r1, c0, c1, 8):
            yb = y[b0:b1, c0:c1]
            np.multiply(acc, alpha, out=tmp)
            np.add(yb, tmp, out=yb)
            yr[b0 - r0:b1 - r0] = yb
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
