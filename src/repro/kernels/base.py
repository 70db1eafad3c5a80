"""The pluggable kernel interface behind the hot paths.

Every computational kernel of the solver family — the 5-point (2-D) or
7-point (3-D) stencil apply (paper Listing 1), the fused apply+dot and
apply+axpy+dot chains, halo pack/unpack, and the BLAS-1 tail
(dot/axpy/aypx/norm) — is routed
through a :class:`KernelBackend`.  Backends operate on **raw padded
arrays plus explicit loop bounds** so implementations are free to block,
fuse or compile without knowing anything about :class:`~repro.mesh.field.Field`,
communicators or tracing; all of that stays in the operator layer.

Loop-bound convention: ``(r0, r1, c0, c1)`` are *padded-array* indices of
the region to compute (``rows = r0:r1``, ``cols = c0:c1``), exactly the
slices returned by :meth:`repro.mesh.field.Field.region`.  The stencil
reads one extra ring (``r0-1 .. r1`` / ``c0-1 .. c1``), which the caller
guarantees is valid (a fresh halo).

Dimension convention: the signatures below are the 2-D calls.  A 3-D
call is the same method with one more face array after ``ky`` and one
more bound pair in front, slowest axis first —
``stencil_apply(kx, ky, kz, p, out, z0, z1, r0, r1, c0, c1)``,
``pack_halo(a, planes, rows, cols)`` — and the dimension is
``kx.ndim``.  All operands of a stencil chain share one C-contiguous
padded shape (an operator's fields always do); anything else is a
``ConfigurationError``.

Numerical policy (see ``docs/kernels.md``):

- **fp-order-preserving kernels** — ``stencil_apply``, ``axpy``,
  ``aypx``, the field updates of ``apply_axpy_dot``, the bound bodies
  of ``bind_chebyshev`` and ``bind_cg``, ``pack_halo``/``unpack_halo``
  — are elementwise and must match the ``numpy`` baseline **bit for
  bit** for every dtype: blocking or compiling may not reorder an
  element's ops (nor fuse a multiply into an add).
- **reductions** — ``dot``, ``norm``, the scalars of ``apply_dot`` /
  ``apply_axpy_dot`` and of the bound CG bodies — have one defined
  order, :func:`reference_dot`, so they are the same bits on every CPU.

The equivalence battery (``tests/test_kernels_equivalence.py``) holds
both bodies of the ``numpy`` backend — the compiled loops and the NumPy
replay — to a whole-array oracle, bit for bit.
"""

from __future__ import annotations

import numpy as np

#: Per-kernel minimum achievable memory streams (arrays read + written
#: once per cell), used by perfbench's modelled bytes per kernel call:
#: ``bytes = streams * cells * itemsize``.  The stencil kernels count
#: ``p``/``kx``/``ky`` reads and the ``out`` write; the fused chains add
#: the extra operand streamed (``y`` read+write for the axpy tail) but
#: *not* re-reads the fusion exists to avoid.
KERNEL_STREAMS = {
    "stencil_apply": 4,
    "apply_dot": 4,
    "apply_axpy_dot": 6,
    "dot": 2,
    "axpy": 3,
    "norm": 1,
    "pack_halo": 2,
    "unpack_halo": 2,
}

#: The reference reduction's lane count (``bodies.c`` defines it too).
LANES = 8


def reference_dot(a: np.ndarray, b: np.ndarray, out=None) -> float:
    """The reference reduction ``<a, b>`` of two arrays of one shape.

    - Cell ``j`` of the arrays, counted in C order (slowest axis first),
      goes to lane ``j % 8``.
    - Each lane starts at ``+0.0`` and adds its products ``a[j] * b[j]``
      in sequence.  Products, lanes and their combination are computed
      in the operands' dtype: float32 accumulates in float32.
    - The lanes combine as ``((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6
      + l7))``, returned as a Python float; an inf or NaN is a value for
      the solvers' guards, not a warning.

    No library chooses this order, so it is the same on every CPU.
    ``bodies.c`` sums the lanes while it streams a region; this is the
    NumPy statement, which writes the products into ``out`` (flat, at
    least ``a.size + LANES`` cells of the product dtype) when given.
    """
    n = a.size
    if out is None:
        out = np.empty(n + LANES, np.result_type(a.dtype, b.dtype))
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(a, b, out=out[:n].reshape(a.shape))
    return lane_sum(out, n)


def lane_sum(prod: np.ndarray, n: int) -> float:
    """:func:`reference_dot` of the products in the first ``n`` cells of
    the flat ``prod`` (at least ``n + LANES`` cells).  The cells up to the
    next multiple of ``LANES`` are zeroed: a zero added to a lane that
    started at ``+0.0`` changes nothing."""
    rows = prod[:-(-n // LANES) * LANES]
    rows[n:] = 0
    with np.errstate(over="ignore", invalid="ignore"):
        # einsum starts each lane at +0.0 and adds one row of LANES cells
        # after another, so each lane is summed in sequence (a test pins
        # this) — as np.add.reduce along axis 0 does, 4x slower.
        lanes = np.einsum("ij->j", rows.reshape(-1, LANES))
        pairs = lanes[0::2] + lanes[1::2]
        return float((pairs[0] + pairs[1]) + (pairs[2] + pairs[3]))


def stencil_diagonal(*faces: np.ndarray) -> np.ndarray:
    """The stencil's centre coefficient per padded cell: ``1 + `` the
    cell's two face coefficients along every axis, slowest axis first and
    high face before low (the order every backend must add them in);
    1 in the last index of each axis, whose high faces do not exist.

    ``faces`` are ``(kx, ky[, kz])``, fastest axis first, of one shape.
    """
    inner = (slice(None, -1),) * len(faces)
    core = 1.0
    for axis, k in enumerate(reversed(faces)):
        high = (*inner[:axis], slice(1, None), *inner[axis + 1:])
        core = core + k[high] + k[inner]
    diag = np.ones(faces[0].shape, dtype=core.dtype)
    diag[inner] = core
    return diag


class KernelBackend:
    """Abstract kernel set: subclasses implement the stencil chains,
    ``dot`` and ``axpy``; ``aypx``, ``norm`` and the halo copies have
    defaults, and ``bind_chebyshev`` and ``bind_cg`` are optional.
    The stencil signatures are the 2-D calls (module docstring: a 3-D
    call carries ``kz`` and a plane bound pair more).

    An instance carries scratch (the baseline: a workspace and a cached
    stencil diagonal), so it belongs to **one operator** and its halo
    exchanger, never to two operators or two rank threads.  ``out is p``
    is rejected (``ConfigurationError``); frozen ``kx``/``ky``
    (``flags.writeable`` False) must never change again.
    """

    #: Registry name (``"numpy"``).
    name = "?"

    # -- stencil chains --------------------------------------------------------

    def stencil_apply(self, kx: np.ndarray, ky: np.ndarray, p: np.ndarray,
                      out: np.ndarray, r0: int, r1: int, c0: int, c1: int,
                      ) -> None:
        """``out[R] = (A p)[R]`` (paper Listing 1) on region ``R``."""
        raise NotImplementedError

    def apply_dot(self, kx: np.ndarray, ky: np.ndarray, p: np.ndarray,
                  out: np.ndarray, r0: int, r1: int, c0: int, c1: int,
                  ) -> float:
        """``out[R] = (A p)[R]``; returns the local ``<p, A p>`` over ``R``.

        The fusion CG's matvec+direction-dot chain streams through: one
        pass over ``p``/``kx``/``ky`` instead of re-reading ``p`` and
        ``out`` for the dot.
        """
        raise NotImplementedError

    def apply_axpy_dot(self, kx: np.ndarray, ky: np.ndarray, p: np.ndarray,
                       out: np.ndarray, y: np.ndarray, alpha: float,
                       r0: int, r1: int, c0: int, c1: int) -> float:
        """``out[R] = (A p)[R]; y[R] += alpha * out[R]``; returns local
        ``<y, y>`` over ``R``.

        With ``y`` pre-loaded with ``b`` and ``alpha = -1`` this is the
        fused residual + convergence-norm chain of Jacobi (and of the
        solvers' true-residual checks): ``y = b - A p`` and ``<y, y>`` in
        one streaming pass.
        """
        raise NotImplementedError

    def bind_chebyshev(self, faces, d, w, r, z, inv_diag, regions,
                       interior):
        """One matrix-powers Chebyshev inner step bound once to one
        iteration's padded arrays, as :meth:`bind_cg` binds, or None.
        ``regions[ext]`` are the loop bounds of extension ``ext``,
        ``interior`` the interior's, inside each.  Where ``fits(scale,
        beta)``, ``steps[ext](scale, beta)`` runs on ``R = regions[ext]``:
        ``w = A d``; ``z += d`` on the interior only; then ``r += w * -1``,
        ``w = (r * inv_diag) * scale`` (``r * scale`` when ``inv_diag`` is
        None) and ``d = d * beta + w`` — per cell in the order of those
        separate passes."""
        return None

    def bind_cg(self, faces, x, r, p, w, z, bounds, ring):
        """CG's iteration bodies bound once to one solve's padded arrays on
        region ``bounds`` and its ``ring`` (the region grown by one cell
        toward neighbours) — or None, the default: the caller then makes
        the separate calls, the reference, whose bits the bodies give.
        The bound object keeps the arrays alive and its bodies as
        attributes, and ``fits(*scalars)`` is their one scalar check.
        ``apply_dot()`` returns the local ``<p, A p>``;
        ``cg_residual(alpha)`` runs ``r += -alpha w`` and returns the local
        ``<r, r>`` when ``z`` is ``r`` (else 0.0); ``cg_pass(alpha,
        beta)`` runs, in one pass, ``x += alpha p`` on the region, ``p =
        beta p + z`` on the ring and ``w = A p`` on the region, and returns
        the local ``<p, A p>``; ``update_x(alpha)`` and ``update_p(beta)``
        are its first two updates alone, on the region."""
        return None

    # -- BLAS-1 tail -----------------------------------------------------------

    def dot(self, a: np.ndarray, b: np.ndarray) -> float:
        """Local dot product of two (view) arrays of one shape:
        :func:`reference_dot`'s bits."""
        raise NotImplementedError

    def axpy(self, y: np.ndarray, alpha: float, x: np.ndarray) -> None:
        """``y += alpha * x`` in place (bit-identical to the baseline)."""
        raise NotImplementedError

    def aypx(self, y: np.ndarray, beta: float, x: np.ndarray) -> None:
        """``y = beta * y + x`` in place, one multiply and one add per
        cell: the direction update of CG and Chebyshev (bit-identical to
        these two passes, which are the baseline)."""
        np.multiply(y, beta, out=y)
        np.add(y, x, out=y)

    def norm(self, a: np.ndarray) -> float:
        """Local 2-norm ``sqrt(<a, a>)``."""
        return float(np.sqrt(self.dot(a, a)))

    # -- halo pack/unpack ------------------------------------------------------

    def pack_halo(self, a: np.ndarray, *region: slice) -> np.ndarray:
        """Contiguous copy of ``a[rows, cols]`` ready to send."""
        return np.ascontiguousarray(a[region])

    def unpack_halo(self, a: np.ndarray, *region_buf) -> None:
        """``a[rows, cols] = buf`` (received payload into ghost cells);
        called as ``unpack_halo(a, rows, cols, buf)``."""
        a[region_buf[:-1]] = region_buf[-1]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<KernelBackend {self.name}>"
