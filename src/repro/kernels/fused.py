"""Chain-fused reductions on top of the blocked baseline (pure NumPy).

The data-locality idea of Kronbichler et al. (arXiv 2205.08909): stream
each field through cache once per chain, not once per whole-array pass.
Its elementwise half (L2-sized blocks of rows or planes, block scratch)
now *is* the ``numpy`` baseline, so ``stencil_apply``, ``axpy`` and the
chains' field updates are inherited, bit-identical by construction.  What is left are
**block-partial reductions**: where the baseline sums one region's
products in the reference order, this backend reduces each block while
it is cache-hot (``np.einsum``'s order per block, no workspace, exact
``math.fsum`` across).  That reassociates, within
:func:`repro.kernels.base.reduction_tolerance`; block sizes depend only
on region shape and dtype, so results repeat run to run.
"""

from __future__ import annotations

import math

import numpy as np

from repro.kernels.numpy_backend import NumpyBackend, _block_rows, _operands


def _block_dot(a: np.ndarray, b: np.ndarray) -> float:
    """``<a, b>`` of one cache-hot block, in the operands' dtype."""
    axes = list(range(a.ndim))
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.einsum(a, axes, b, axes, []))


class FusedBackend(NumpyBackend):
    """The blocked baseline with block-partial, chain-fused reductions."""

    name = "fused"

    def apply_dot(self, *args):
        faces, p, out, _, bounds = _operands(args)
        plan = self._plan(faces, p, out, bounds, 7)
        return math.fsum(_block_dot(p[window], acc) for _, window, acc, _
                         in self._stencil_blocks(*plan, p, out))

    def apply_axpy_dot(self, *args):
        faces, p, out, (y, alpha), bounds = _operands(args, 2)
        plan = self._plan(faces, p, out, bounds, 8, y)
        partials = []
        for _, window, acc, tmp in self._stencil_blocks(*plan, p, out):
            np.multiply(acc, alpha, out=tmp)
            np.add(y[window], tmp, out=tmp)
            y[window] = tmp
            partials.append(_block_dot(tmp, tmp))
        return math.fsum(partials)

    def dot(self, a, b):
        nrows = a.shape[0]
        bs = _block_rows(nrows, a.shape[-1], a.itemsize, streams=2)
        return math.fsum(_block_dot(a[b0:b0 + bs], b[b0:b0 + bs])
                         for b0 in range(0, nrows, bs))
