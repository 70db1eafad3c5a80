"""Pass-through proxies that record one span per call into a layer.

The traced run hands these to the program through its public
constructor arguments — a ``Communicator`` around the world's comm, a
``KernelBackend`` for ``StencilOperator2D(kernels=...)`` and a
``HaloExchanger`` for ``exchanger=...`` — so every call that crosses a
layer boundary is timed from outside and nothing inside ``src/`` knows.
Each proxy forwards its arguments untouched; the self-test proves a
proxied solve bit-identical to an unproxied one.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.comm.base import Communicator, payload_bytes
from repro.kernels import KERNEL_STREAMS, KernelBackend
from repro.mesh import HaloExchanger


#: every span name the proxies emit, by layer (ids index this tuple)
LABELS = tuple(
    [(name, "kernels") for name in KERNEL_STREAMS]
    + [(name, "comm") for name in ("send", "recv", "allreduce", "bcast",
                                   "gather", "allgather", "barrier")]
    + [(f"exchange_d{depth}", "halo") for depth in range(1, 17)]
    + [("solve", "solvers")])
_LABEL_ID = {label: i for i, label in enumerate(LABELS)}


class Recorder:
    """One rank's spans, kept in memory until the run ends.

    A span is ``(name, layer, rank, op_id, parent, t_start, t_end)``;
    its id is its index and ``parent`` is the id of the span open when
    it started (-1 for an op's root).  ``kernel_bytes``/``p2p_bytes``
    hold, per op, the exact quantities the spans cannot carry.

    Everything lives in arrays allocated before the first op, and
    recording allocates nothing that outlives the call.  That is
    deliberate: on ``cg_serial_512`` one long-lived block malloc'd
    mid-solve pins glibc's heap top, stops it trimming and re-faulting
    the 2 MB numpy temporaries, and makes that op and every later one
    40 % faster.  A list of span tuples did exactly that (so did a dict
    that grew mid-solve): the traced run then measured another allocator
    regime than the untraced one.
    """

    def __init__(self, rank: int, max_ops: int = 64,
                 capacity: int = 1 << 16):
        self.rank = rank
        self.op_id = 0
        self.n = 0
        self._open = -1
        self.kernel_bytes = np.zeros(max_ops, dtype=np.int64)
        self.p2p_bytes = np.zeros(max_ops, dtype=np.int64)
        self._label = np.zeros(capacity, dtype=np.int32)
        self._op = np.zeros(capacity, dtype=np.int32)
        self._parent = np.zeros(capacity, dtype=np.int32)
        self._t0 = np.zeros(capacity)
        self._t1 = np.zeros(capacity)

    def _grow(self) -> None:
        for attr in ("_label", "_op", "_parent", "_t0", "_t1"):
            old = getattr(self, attr)
            setattr(self, attr, np.concatenate([old, np.zeros_like(old)]))

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        sid = self.n
        if sid == len(self._t0):
            self._grow()
        self.n = sid + 1
        parent, self._open = self._open, sid
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._open = parent
            self._label[sid] = _LABEL_ID[(name, layer)]
            self._op[sid] = self.op_id
            self._parent[sid] = parent
            self._t0[sid] = t0
            self._t1[sid] = t1

    @property
    def spans(self) -> list:
        """Every recorded span as a tuple, in id order."""
        return [(*LABELS[self._label[i]], self.rank, int(self._op[i]),
                 int(self._parent[i]), float(self._t0[i]), float(self._t1[i]))
                for i in range(self.n)]


class TracedComm(Communicator):
    """Records every collective and point-to-point call of ``inner``."""

    def __init__(self, inner: Communicator, rec: Recorder):
        self.inner = inner
        self.rec = rec
        self.rank = inner.rank
        self.size = inner.size

    def send(self, obj, dest, tag=0):
        self.rec.p2p_bytes[self.rec.op_id] += payload_bytes(obj)
        return self.rec.call("send", "comm", self.inner.send, obj, dest, tag)

    def recv(self, source, tag=0, **kwargs):
        return self.rec.call("recv", "comm", self.inner.recv, source, tag,
                             **kwargs)

    def irecv(self, source, tag=0):
        # Forwarded, not rebuilt from recv: the inner request is
        # genuinely non-blocking and the base-class default is not.
        return self.inner.irecv(source, tag)

    def allreduce(self, value, op="sum"):
        return self.rec.call("allreduce", "comm", self.inner.allreduce,
                             value, op)

    def bcast(self, obj, root=0):
        return self.rec.call("bcast", "comm", self.inner.bcast, obj, root)

    def gather(self, obj, root=0):
        return self.rec.call("gather", "comm", self.inner.gather, obj, root)

    def allgather(self, obj):
        return self.rec.call("allgather", "comm", self.inner.allgather, obj)

    def barrier(self):
        return self.rec.call("barrier", "comm", self.inner.barrier)


class TracedKernels(KernelBackend):
    """Records every kernel call of ``inner`` and its computed bytes.

    Reports the wrapped backend's ``name``, so ``solve_linear`` sees the
    backend the options ask for and keeps this proxy in place.  Bytes
    are *computed* from array sizes (``KERNEL_STREAMS`` × cells ×
    itemsize); cache misses are not in them.
    """

    def __init__(self, inner: KernelBackend, rec: Recorder):
        self.inner = inner
        self.rec = rec
        self.name = inner.name

    def _call(self, kernel: str, cells: int, itemsize: int, *args):
        self.rec.kernel_bytes[self.rec.op_id] += (KERNEL_STREAMS[kernel] * cells
                                                  * itemsize)
        return self.rec.call(kernel, "kernels", getattr(self.inner, kernel),
                             *args)

    def stencil_apply(self, kx, ky, p, out, r0, r1, c0, c1):
        return self._call("stencil_apply", (r1 - r0) * (c1 - c0),
                          out.itemsize, kx, ky, p, out, r0, r1, c0, c1)

    def apply_dot(self, kx, ky, p, out, r0, r1, c0, c1):
        return self._call("apply_dot", (r1 - r0) * (c1 - c0), out.itemsize,
                          kx, ky, p, out, r0, r1, c0, c1)

    def apply_axpy_dot(self, kx, ky, p, out, y, alpha, r0, r1, c0, c1):
        return self._call("apply_axpy_dot", (r1 - r0) * (c1 - c0),
                          out.itemsize, kx, ky, p, out, y, alpha,
                          r0, r1, c0, c1)

    def dot(self, a, b):
        return self._call("dot", a.size, a.itemsize, a, b)

    def axpy(self, y, alpha, x):
        return self._call("axpy", y.size, y.itemsize, y, alpha, x)

    def norm(self, a):
        return self._call("norm", a.size, a.itemsize, a)

    def pack_halo(self, a, rows, cols):
        cells = (rows.stop - rows.start) * (cols.stop - cols.start)
        return self._call("pack_halo", cells, a.itemsize, a, rows, cols)

    def unpack_halo(self, a, rows, cols, buf):
        return self._call("unpack_halo", buf.size, buf.itemsize,
                          a, rows, cols, buf)


@dataclass
class TracedExchanger(HaloExchanger):
    """A ``HaloExchanger`` whose every exchange is one ``halo`` span.

    Built over the traced comm and kernels, so the messages and
    pack/unpack calls of an exchange are its child spans.
    """

    rec: Recorder = None

    def exchange(self, fields, depth=1):
        return self.rec.call(f"exchange_d{depth}", "halo",
                             super().exchange, fields, depth)
