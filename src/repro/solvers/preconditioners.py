"""Local (communication-free) preconditioners.

Two of TeaLeaf's preconditioners live here:

- **diagonal Jacobi** (``tl_preconditioner_type=jac_diag``): ``z = r / diag(A)``;
- **block Jacobi** (``jac_block``, paper §IV-C1): the mesh is split into
  4x1 strips along y; each strip's 4x4 block of ``A`` is tridiagonal (the
  in-strip ``Ky`` couplings) and is solved directly with the Thomas
  algorithm, vectorised across all strips at once.  Strips are truncated to
  length 3/2/1 at domain and rank boundaries.  No communication is ever
  needed, which is why the paper pairs it with communication-avoiding CG —
  but it cannot be combined with matrix-powers extended bounds (the strip
  partition would shift every inner step), which the driver enforces.

The Chebyshev polynomial preconditioner (the "C" of CPPCG) is in
:mod:`repro.solvers.chebyshev` since it shares machinery with the
standalone Chebyshev solver.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.mesh.field import Field
from repro.solvers.operator import StencilOperator2D
from repro.utils.errors import ConfigurationError

#: Strip length used by TeaLeaf's block Jacobi.
BLOCK_STRIP = 4


class Preconditioner(ABC):
    """``z = M^{-1} r`` on the interior; must be SPD to keep PCG valid."""

    #: True when applying M needs no communication (all of these do not).
    communication_free: bool = True
    name: str = "preconditioner"

    @abstractmethod
    def apply(self, r: Field, z: Field) -> None:
        """Compute ``z = M^{-1} r`` over the interior."""

    #: Inner iteration count contributed per application (Chebyshev only).
    inner_steps: int = 0


class IdentityPreconditioner(Preconditioner):
    """M = I: plain CG."""

    name = "none"

    def __init__(self, op: StencilOperator2D | None = None):
        self.op = op

    def apply(self, r: Field, z: Field) -> None:
        z.interior[...] = r.interior


class DiagonalPreconditioner(Preconditioner):
    """M = diag(A): pointwise scaling, vectorises trivially.

    Also usable on matrix-powers extended bounds via :meth:`apply_region`
    because the operator diagonal is available over the whole padded
    array; works for any operator dimensionality (the operator provides
    ``diagonal_padded()``).
    """

    name = "diagonal"

    def __init__(self, op):
        self.op = op
        inv_diag = Field(op.tile, op.halo, 1.0 / op.diagonal_padded())
        if op.tile.n_neighbors:
            # The outermost high ghost layer has no face beyond the array
            # (``stencil_diagonal`` pads it with 1): every ghost toward a
            # neighbour is the neighbour's own cell, exchanged once — the
            # diagonal never changes.
            op.exchanger.exchange(inv_diag, depth=op.halo)
        self.inv_diag_padded = inv_diag.data

    def apply(self, r: Field, z: Field) -> None:
        sl = r.region(0)
        np.multiply(r.data[sl], self.inv_diag_padded[sl], out=z.data[sl])

    def apply_region(self, r: Field, z: Field, region: tuple) -> None:
        """Extended-bounds application for the matrix powers kernel."""
        np.multiply(r.data[region], self.inv_diag_padded[region],
                    out=z.data[region])


class BlockJacobiPreconditioner(Preconditioner):
    """TeaLeaf's 4x1-strip block Jacobi (paper §IV-C1).

    Setup factorises every strip's tridiagonal block once (the forward
    elimination multipliers of the Thomas algorithm); each application then
    costs two short vectorised sweeps over ``(n_strips, nx)`` arrays.
    """

    name = "block_jacobi"

    def __init__(self, op: StencilOperator2D, strip: int = BLOCK_STRIP):
        if strip < 1:
            raise ConfigurationError(f"strip length must be >= 1, got {strip}")
        if getattr(op, "ndim", 2) != 2:
            raise ConfigurationError(
                "block Jacobi strips are defined for the 2D operator only; "
                "use the diagonal preconditioner in 3D")
        self.op = op
        self.strip = strip
        t, h = op.tile, op.halo
        diag = op.diagonal()                       # (ny, nx)
        # In-strip coupling between interior rows k and k+1 is -Ky[k+1].
        coupling = -op.ky.data[h + 1:h + t.ny, h:h + t.nx]   # (ny-1, nx)
        self._groups = []
        n_full, rem = divmod(t.ny, strip)
        if n_full:
            self._groups.append(self._factorise(
                rows0=0, n_strips=n_full, length=strip,
                diag=diag, coupling=coupling))
        if rem:
            self._groups.append(self._factorise(
                rows0=n_full * strip, n_strips=1, length=rem,
                diag=diag, coupling=coupling))

    @staticmethod
    def _factorise(rows0: int, n_strips: int, length: int,
                   diag: np.ndarray, coupling: np.ndarray) -> dict:
        """Thomas forward-elimination factors for a group of equal strips."""
        nx = diag.shape[1]
        strip_rows = rows0 + (np.arange(n_strips) * length)[:, None] \
            + np.arange(length)[None, :]
        b = diag[strip_rows.ravel(), :].reshape(n_strips, length, nx)
        if length > 1:
            cpl_rows = strip_rows[:, :-1]
            a = coupling[cpl_rows.ravel(), :].reshape(n_strips, length - 1, nx)
        else:
            a = np.zeros((n_strips, 0, nx))
        inv_denom = np.empty_like(b)
        cp = np.empty_like(a)
        inv_denom[:, 0] = 1.0 / b[:, 0]
        for i in range(1, length):
            cp[:, i - 1] = a[:, i - 1] * inv_denom[:, i - 1]
            inv_denom[:, i] = 1.0 / (b[:, i] - a[:, i - 1] * cp[:, i - 1])
        return {"rows0": rows0, "n": n_strips, "L": length,
                "a": a, "cp": cp, "inv_denom": inv_denom}

    def apply(self, r: Field, z: Field) -> None:
        rin = r.interior
        zout = z.interior
        nx = rin.shape[1]
        for g in self._groups:
            n, L = g["n"], g["L"]
            rows = slice(g["rows0"], g["rows0"] + n * L)
            rr = rin[rows].reshape(n, L, nx)
            a, cp, inv_denom = g["a"], g["cp"], g["inv_denom"]
            dp = np.empty_like(rr)
            dp[:, 0] = rr[:, 0] * inv_denom[:, 0]
            for i in range(1, L):
                dp[:, i] = (rr[:, i] - a[:, i - 1] * dp[:, i - 1]) * inv_denom[:, i]
            x = np.empty_like(rr)
            x[:, L - 1] = dp[:, L - 1]
            for i in range(L - 2, -1, -1):
                x[:, i] = dp[:, i] - cp[:, i] * x[:, i + 1]
            zout[rows] = x.reshape(n * L, nx)


def make_local_preconditioner(op: StencilOperator2D, kind: str) -> Preconditioner:
    """Factory for the local preconditioners by deck/option name."""
    if kind in (None, "none"):
        return IdentityPreconditioner(op)
    if kind == "diagonal":
        return DiagonalPreconditioner(op)
    if kind == "block_jacobi":
        return BlockJacobiPreconditioner(op)
    raise ConfigurationError(
        f"unknown preconditioner {kind!r}; expected none|diagonal|block_jacobi")
