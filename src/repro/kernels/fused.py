"""Chain-fused reductions on top of the blocked baseline (pure NumPy).

The data-locality idea of Kronbichler et al. (arXiv 2205.08909): stream
each field through cache once per chain, not once per whole-array pass.
Its elementwise half (L2-sized blocks of rows or planes, block scratch)
now *is* the ``numpy`` baseline, so ``stencil_apply``, ``axpy`` and the
chains' field updates are inherited, bit-identical by construction.  What is left are
**block-partial reductions**: where the baseline pays a copy of each
strided operand and a second pass over memory for its one reference
``np.dot``, this backend reduces each block while it is cache-hot
(``np.dot`` per block, exact ``math.fsum`` across).  That reassociates,
within :func:`repro.kernels.base.reduction_tolerance`; block sizes
depend only on region shape and dtype, so results repeat run to run.
"""

from __future__ import annotations

import math

import numpy as np

from repro.kernels.numpy_backend import (_DOT_A, _DOT_B, NumpyBackend,
                                         _block_rows, _dot, _operands)


class FusedBackend(NumpyBackend):
    """The blocked baseline with block-partial, chain-fused reductions."""

    name = "fused"

    def apply_dot(self, *args):
        faces, p, out, _, bounds = _operands(args)
        plan = self._plan(faces, p, out, bounds, 7)
        partials = []
        for _, window, acc, _ in self._stencil_blocks(*plan, p, out):
            # Both operands cache-hot; workspace copies where strided.
            partials.append(_dot(self._contiguous(_DOT_A, p[window]),
                                 self._contiguous(_DOT_B, acc)))
        return math.fsum(partials)

    def apply_axpy_dot(self, *args):
        faces, p, out, (y, alpha), bounds = _operands(args, 2)
        plan = self._plan(faces, p, out, bounds, 8, y)
        partials = []
        for _, window, acc, tmp in self._stencil_blocks(*plan, p, out):
            np.multiply(acc, alpha, out=tmp)
            np.add(y[window], tmp, out=tmp)
            y[window] = tmp
            yb = self._contiguous(_DOT_A, tmp)
            partials.append(_dot(yb, yb))
        return math.fsum(partials)

    def dot(self, a, b):
        nrows = a.shape[0]
        bs = _block_rows(nrows, a.shape[-1], a.itemsize, streams=2)
        partials = []
        for b0 in range(0, nrows, bs):
            fa = self._contiguous(_DOT_A, a[b0:b0 + bs])
            fb = fa if b is a else self._contiguous(_DOT_B, b[b0:b0 + bs])
            partials.append(_dot(fa, fb))
        return math.fsum(partials)
