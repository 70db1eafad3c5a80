"""Distributed multigrid via local coarsening + agglomeration.

The paper's §VII roadmap: "we intend to explore combining the favorable
aspects of both domain decomposition and agglomeration multi-grid
methods".  This module implements exactly that hybrid:

1. **Domain-decomposed levels** — while every rank's tile has even
   dimensions, the V-cycle coarsens *in place*: each level owns
   rank-local Galerkin-coarsened coefficients, smoothing sweeps perform
   ordinary depth-1 halo exchanges, and restriction/prolongation are
   purely local 2x2 block operations (no communication at all).
2. **Agglomeration** — once tiles cannot halve further, the remaining
   coarse problem is gathered onto rank 0, solved exactly (sparse direct
   factorisation, prepared once at setup), and the correction broadcast
   back.

The resulting V-cycle is a fixed SPD linear operation, so it serves as a
CG preconditioner on any communicator — giving the BoomerAMG-baseline
path a genuinely distributed implementation to complement the serial one
in :mod:`repro.multigrid.mgcg`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse.linalg as spla

from repro.mesh.decomposition import Tile
from repro.mesh.field import Field
from repro.mesh.halo import HaloExchanger
from repro.multigrid.levels import Level
from repro.multigrid.vcycle import _assemble_level
from repro.solvers.cg import cg_solve
from repro.solvers.operator import StencilOperator2D
from repro.solvers.preconditioners import Preconditioner
from repro.solvers.result import SolveResult
from repro.utils.errors import ConfigurationError
from repro.utils.validation import check_positive


def _coarse_tile(tile: Tile, factor: int) -> Tile:
    """The tile's footprint on a grid coarsened by ``factor``."""
    return replace(tile, lo=tuple(v // factor for v in tile.lo),
                   hi=tuple(v // factor for v in tile.hi))


def _coarsen_operator(op: StencilOperator2D) -> StencilOperator2D:
    """Galerkin-coarsen a rank-local operator (local dims must be even)."""
    t, h = op.tile, op.halo
    if t.nx % 2 or t.ny % 2:
        raise ConfigurationError(
            f"cannot coarsen odd local tile {t.shape}")
    ct = _coarse_tile(t, 2)
    kxc = Field(ct, 1)
    kyc = Field(ct, 1)
    # Fine faces live on the padded arrays; local interior window:
    fkx = op.kx.data[h:h + t.ny, h:h + t.nx + 1]
    fky = op.ky.data[h:h + t.ny + 1, h:h + t.nx]
    kxc.data[1:1 + ct.ny, 1:1 + ct.nx + 1] = \
        0.25 * (fkx[0::2, 0::2] + fkx[1::2, 0::2])
    kyc.data[1:1 + ct.ny + 1, 1:1 + ct.nx] = \
        0.25 * (fky[0::2, 0::2] + fky[0::2, 1::2])
    # Coefficients straddling rank boundaries live in the halo; refresh
    # them before the operator exists — it freezes its coefficients.
    exchanger = HaloExchanger(op.comm, events=op.events)
    exchanger.exchange([kxc, kyc], depth=1)
    return StencilOperator2D(kx=kxc, ky=kyc, comm=op.comm,
                             exchanger=exchanger, events=op.events)


def _local_levels(tile: Tile, min_local: int, max_levels: int) -> int:
    """How many times this tile can halve (>= min_local cells per side)."""
    n = 0
    nx, ny = tile.nx, tile.ny
    while (n < max_levels and nx % 2 == 0 and ny % 2 == 0
           and nx // 2 >= min_local and ny // 2 >= min_local):
        nx //= 2
        ny //= 2
        n += 1
    return n


@dataclass
class _CoarseSolver:
    """Rank-0 agglomerated exact solve of the coarsest level."""

    op: StencilOperator2D
    shape: tuple[int, int]        # global coarse (ny, nx)
    lu: object | None             # rank 0 only

    @classmethod
    def build(cls, op: StencilOperator2D) -> "_CoarseSolver":
        t, h = op.tile, op.halo
        kx_local = op.kx.data[h:h + t.ny, h:h + t.nx + 1].copy()
        ky_local = op.ky.data[h:h + t.ny + 1, h:h + t.nx].copy()
        pieces = op.comm.gather((t, kx_local, ky_local), root=0)
        ny_g = int(op.comm.allreduce(t.y1 if t.up is None else 0, op="max"))
        nx_g = int(op.comm.allreduce(t.x1 if t.right is None else 0,
                                     op="max"))
        lu = None
        if pieces is not None:
            kx_g = np.zeros((ny_g, nx_g + 1))
            ky_g = np.zeros((ny_g + 1, nx_g))
            for tile, kx_p, ky_p in pieces:
                kx_g[tile.y0:tile.y1, tile.x0:tile.x1 + 1] = kx_p
                ky_g[tile.y0:tile.y1 + 1, tile.x0:tile.x1] = ky_p
            A = _assemble_level(Level(kx=kx_g, ky=ky_g)).tocsc()
            lu = spla.splu(A)
        return cls(op=op, shape=(ny_g, nx_g), lu=lu)

    def solve(self, b: Field, out: Field) -> None:
        """Gather b -> exact solve on rank 0 -> broadcast correction."""
        comm = self.op.comm
        pieces = comm.gather((self.op.tile, b.interior.copy()), root=0)
        x_global = None
        if pieces is not None:
            b_global = np.zeros(self.shape)
            for tile, b_p in pieces:
                b_global[tile.global_slices] = b_p
            x_global = self.lu.solve(b_global.ravel()).reshape(self.shape)
        x_global = comm.bcast(x_global, root=0)
        out.interior[...] = x_global[self.op.tile.global_slices]


class DistributedMultigrid:
    """The hybrid V-cycle: decomposed levels + agglomerated coarse solve."""

    def __init__(self, op: StencilOperator2D, *,
                 pre_sweeps: int = 2, post_sweeps: int = 2,
                 omega: float = 0.8, min_local: int = 2,
                 max_levels: int = 16):
        check_positive("pre_sweeps", pre_sweeps)
        check_positive("post_sweeps", post_sweeps)
        if op.ndim != 2:
            raise ConfigurationError(
                "the multigrid hierarchy is defined for the 2D operator only")
        self.pre_sweeps = pre_sweeps
        self.post_sweeps = post_sweeps
        self.omega = omega
        # Every rank must agree on the level count.
        local = _local_levels(op.tile, min_local, max_levels)
        self.n_local_levels = int(op.comm.allreduce(local, op="min"))
        self.ops: list[StencilOperator2D] = [op]
        for _ in range(self.n_local_levels):
            self.ops.append(_coarsen_operator(self.ops[-1]))
        self.coarse = _CoarseSolver.build(self.ops[-1])
        self._inv_diag = [1.0 / lop.diagonal() for lop in self.ops]

    # -- level operations ----------------------------------------------------

    def _smooth(self, li: int, x: Field, b: Field, w: Field,
                sweeps: int) -> None:
        lop = self.ops[li]
        inv_diag = self._inv_diag[li]
        for _ in range(sweeps):
            lop.apply(x, w)
            x.interior += self.omega * inv_diag * (b.interior - w.interior)

    def cycle(self, b: Field, x: Field | None = None) -> Field:
        """One V-cycle for the finest-level system ``A x = b``."""
        if x is None:
            x = self.ops[0].new_field()
        self._cycle(0, x, b)
        return x

    def _cycle(self, li: int, x: Field, b: Field) -> None:
        lop = self.ops[li]
        if li == self.n_local_levels:
            self.coarse.solve(b, x)
            return
        w = lop.new_field()
        self._smooth(li, x, b, w, self.pre_sweeps)
        lop.apply(x, w)
        residual = b.interior - w.interior
        clop = self.ops[li + 1]
        cb = clop.new_field()
        cb.interior[...] = 0.25 * (residual[0::2, 0::2] + residual[1::2, 0::2]
                                   + residual[0::2, 1::2]
                                   + residual[1::2, 1::2])
        cx = clop.new_field()
        self._cycle(li + 1, cx, cb)
        corr = cx.interior
        xi = x.interior
        xi[0::2, 0::2] += corr
        xi[1::2, 0::2] += corr
        xi[0::2, 1::2] += corr
        xi[1::2, 1::2] += corr
        self._smooth(li, x, b, w, self.post_sweeps)


class DistributedMultigridPreconditioner(Preconditioner):
    """One hybrid V-cycle as ``z = M^{-1} r`` (SPD, any communicator)."""

    name = "distributed_multigrid"
    communication_free = False

    def __init__(self, op: StencilOperator2D, **kwargs):
        self.op = op
        self.mg = DistributedMultigrid(op, **kwargs)

    @property
    def n_levels(self) -> int:
        return self.mg.n_local_levels + 1

    def apply(self, r: Field, z: Field) -> None:
        z.data.fill(0.0)
        self.mg._cycle(0, z, r)


def dmgcg_solve(
    op: StencilOperator2D,
    b: Field,
    x0: Field | None = None,
    *,
    eps: float = 1e-10,
    max_iters: int = 1_000,
    pre_sweeps: int = 2,
    post_sweeps: int = 2,
    omega: float = 0.8,
    defences=None,
) -> SolveResult:
    """CG preconditioned by the distributed hybrid V-cycle, watched by
    ``defences`` as any :func:`~repro.solvers.cg.cg_solve` is."""
    M = DistributedMultigridPreconditioner(
        op, pre_sweeps=pre_sweeps, post_sweeps=post_sweeps, omega=omega)
    result = cg_solve(op, b, x0, eps=eps, max_iters=max_iters,
                      preconditioner=M, solver_name="mgcg", defences=defences)
    result.n_levels = M.n_levels
    return result
