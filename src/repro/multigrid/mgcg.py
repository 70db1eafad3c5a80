"""MG-CG: conjugate gradients preconditioned by one hybrid V-cycle.

This is the library's stand-in for the paper's "PETSc CG + BoomerAMG"
baseline, built as the hybrid its §VII roadmap proposes: "combining the
favorable aspects of both domain decomposition and agglomeration
multi-grid methods".  One V-cycle serves every world size; a single rank
is the one-tile case.

1. **Domain-decomposed levels** — while every rank's tile has even
   dimensions and the global grid keeps at least ``min_size`` cells a
   side, the V-cycle coarsens *in place*: each level owns rank-local
   Galerkin-coarsened coefficients, smoothing sweeps perform ordinary
   depth-1 halo exchanges, and restriction/prolongation
   (:mod:`repro.multigrid.transfer`) are purely local 2x2 block
   operations (no communication at all).
2. **Agglomeration** — the coarsest level is gathered onto rank 0, solved
   exactly (sparse direct factorisation, prepared once at setup), and the
   correction broadcast back.

Galerkin coarsening with piecewise-constant interpolation reduces, for
this 5-point FV operator, to summing the two fine faces crossing each
coarse face and dividing by 4: the coarse operator is again ``I + D`` in
the same normalisation.  The cycle is a fixed SPD linear operation, so it
serves as a CG preconditioner.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse.linalg as spla

from repro.mesh.decomposition import Tile
from repro.mesh.field import Field
from repro.mesh.halo import HaloExchanger
from repro.multigrid.transfer import prolong_constant, restrict_full_weighting
from repro.numerics.breakdown import residual_norm
from repro.solvers.cg import cg_solve
from repro.solvers.eigen import gershgorin_row_max
from repro.solvers.operator import StencilOperator2D
from repro.solvers.preconditioners import Preconditioner
from repro.solvers.result import SolveResult
from repro.utils.errors import ConfigurationError
from repro.utils.validation import check_positive, require

SMOOTHERS = ("jacobi", "chebyshev")


def coarsen_operator(op: StencilOperator2D) -> StencilOperator2D:
    """Galerkin-coarsen a rank-local operator (local dims must be even)."""
    t, h = op.tile, op.halo
    if t.nx % 2 or t.ny % 2:
        raise ConfigurationError(
            f"cannot coarsen odd local tile {t.shape}")
    ct = replace(t, lo=tuple(v // 2 for v in t.lo),
                 hi=tuple(v // 2 for v in t.hi))
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


def _halvings(tile: Tile, min_size: int) -> int:
    """How many times this tile can halve: while its sides stay even and
    the global grid keeps ``min_size`` cells a side.  The global side is
    read as ``tile.shape * tile.dims``, exact on a balanced split; the
    smallest tile's count, which every rank adopts, never overshoots."""
    local = np.array(tile.shape)
    side = int(min(local * np.array(tile.dims)))
    n = 0
    while not (local % 2).any() and side // 2 >= min_size:
        local //= 2
        side //= 2
        n += 1
    return n


@dataclass
class _CoarseSolver:
    """Rank-0 agglomerated exact solve of the coarsest level."""

    op: StencilOperator2D
    shape: tuple[int, int] | None  # global coarse (ny, nx), rank 0 only
    lu: object | None              # rank 0 only

    @classmethod
    def build(cls, op: StencilOperator2D) -> "_CoarseSolver":
        t, h = op.tile, op.halo
        kx_local = op.kx.data[h:h + t.ny, h:h + t.nx + 1].copy()
        ky_local = op.ky.data[h:h + t.ny + 1, h:h + t.nx].copy()
        pieces = op.comm.gather((t, kx_local, ky_local), root=0)
        if pieces is None:
            return cls(op=op, shape=None, lu=None)
        ny_g, nx_g = (max(tile.hi[a] for tile, *_ in pieces) for a in (0, 1))
        kx_g = np.zeros((ny_g, nx_g + 1))
        ky_g = np.zeros((ny_g + 1, nx_g))
        for tile, kx_p, ky_p in pieces:
            kx_g[tile.y0:tile.y1, tile.x0:tile.x1 + 1] = kx_p
            ky_g[tile.y0:tile.y1 + 1, tile.x0:tile.x1] = ky_p
        A = StencilOperator2D.assemble_sparse(kx_g, ky_g).tocsc()
        return cls(op=op, shape=(ny_g, nx_g), lu=spla.splu(A))

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


class Multigrid:
    """The hybrid V-cycle: decomposed levels + agglomerated coarse solve.

    ``smoother`` is damped Jacobi (``omega`` in (0, 1]) or Chebyshev on
    the upper part of each level's spectrum, ``[lam_max/smooth_fraction,
    lam_max]`` with the Gershgorin ``lam_max`` — the paper's §VIII
    observation that a Chebyshev method "function[s] well as a smoother".
    """

    def __init__(self, op: StencilOperator2D, *,
                 pre_sweeps: int = 2, post_sweeps: int = 2,
                 omega: float = 0.8, smoother: str = "jacobi",
                 smooth_fraction: float = 4.0, min_size: int = 4):
        check_positive("pre_sweeps", pre_sweeps)
        check_positive("post_sweeps", post_sweeps)
        require(0.0 < omega <= 1.0, f"omega must be in (0,1], got {omega}")
        require(smoother in SMOOTHERS,
                f"unknown smoother {smoother!r}; expected jacobi|chebyshev")
        require(smooth_fraction > 1.0,
                f"smooth_fraction must exceed 1, got {smooth_fraction}")
        if op.ndim != 2:
            raise ConfigurationError(
                "the multigrid hierarchy is defined for the 2D operator only")
        self.pre_sweeps = pre_sweeps
        self.post_sweeps = post_sweeps
        self.omega = omega
        self.smoother = smoother
        # Every rank must agree on the level count.
        halvings = int(op.comm.allreduce(
            _halvings(op.tile, min_size), op="min"))
        self.ops: list[StencilOperator2D] = [op]
        for _ in range(halvings):
            self.ops.append(coarsen_operator(self.ops[-1]))
        self.coarse = _CoarseSolver.build(self.ops[-1])
        self._inv_diag = [1.0 / lop.diagonal() for lop in self.ops[:-1]]
        if smoother == "chebyshev" and len(self.ops) > 1:
            # Every level's Gershgorin bound, in one allreduce.
            lam_max = op.comm.allreduce(
                np.array([gershgorin_row_max(lop) for lop in self.ops[:-1]]),
                op="max")
            lam_min = lam_max / smooth_fraction
            self._spectrum = list(zip(0.5 * (lam_max + lam_min),
                                      0.5 * (lam_max - lam_min)))

    @property
    def n_levels(self) -> int:
        return len(self.ops)

    # -- level operations ----------------------------------------------------

    def smooth(self, li: int, x: Field, b: Field, sweeps: int,
               w: Field | None = None) -> None:
        """``sweeps`` smoothing steps on level ``li``'s ``A x = b``
        (``w``: workspace of that level)."""
        lop = self.ops[li]
        if w is None:
            w = lop.new_field()
        if self.smoother == "jacobi":
            inv_diag = self._inv_diag[li]
            for _ in range(sweeps):
                lop.apply(x, w)
                x.interior += self.omega * inv_diag * (b.interior - w.interior)
            return
        theta, delta = self._spectrum[li]
        sigma = theta / delta
        rho = 1.0 / sigma
        lop.apply(x, w)
        r = b.interior - w.interior
        d = lop.new_field()
        d.interior = r / theta
        for _ in range(sweeps):
            x.interior += d.interior
            lop.apply(d, w)
            r -= w.interior
            rho_new = 1.0 / (2.0 * sigma - rho)
            d.interior = rho_new * rho * d.interior + (2.0 * rho_new / delta) * r
            rho = rho_new

    def cycle(self, b: Field, x: Field | None = None) -> Field:
        """One V-cycle for the finest-level system ``A x = b``."""
        if x is None:
            x = self.ops[0].new_field()
        self._cycle(0, x, b)
        return x

    def _cycle(self, li: int, x: Field, b: Field) -> None:
        if li == len(self.ops) - 1:
            self.coarse.solve(b, x)
            return
        lop, clop = self.ops[li], self.ops[li + 1]
        w = lop.new_field()
        self.smooth(li, x, b, self.pre_sweeps, w)
        lop.apply(x, w)
        cb = clop.new_field()
        cb.interior = restrict_full_weighting(b.interior - w.interior)
        cx = clop.new_field()
        self._cycle(li + 1, cx, cb)
        x.interior += prolong_constant(cx.interior, out=w.interior)
        self.smooth(li, x, b, self.post_sweeps, w)


class MultigridPreconditioner(Preconditioner):
    """``z = V-cycle(r)``: one symmetric V-cycle per application."""

    name = "multigrid"
    communication_free = False

    def __init__(self, op: StencilOperator2D, **kwargs):
        self.op = op
        self.mg = Multigrid(op, **kwargs)

    def apply(self, r: Field, z: Field) -> None:
        z.data.fill(0.0)
        self.mg.cycle(r, z)


def mgcg_solve(
    op: StencilOperator2D,
    b: Field,
    x0: Field | None = None,
    *,
    eps: float = 1e-10,
    max_iters: int = 1_000,
    pre_sweeps: int = 2,
    post_sweeps: int = 2,
    omega: float = 0.8,
    smoother: str = "jacobi",
    defences=None,
) -> SolveResult:
    """Solve ``A x = b`` with V-cycle-preconditioned CG, watched by
    ``defences`` as any :func:`~repro.solvers.cg.cg_solve` is."""
    M = MultigridPreconditioner(op, pre_sweeps=pre_sweeps,
                                post_sweeps=post_sweeps, omega=omega,
                                smoother=smoother)
    result = cg_solve(op, b, x0, eps=eps, max_iters=max_iters,
                      preconditioner=M, solver_name="mgcg", defences=defences)
    result.n_levels = M.mg.n_levels
    return result


def multigrid_solve(
    op: StencilOperator2D,
    b: Field,
    x0: Field | None = None,
    *,
    eps: float = 1e-10,
    max_iters: int = 200,
) -> SolveResult:
    """Standalone multigrid: V-cycles iterated to tolerance (no CG)."""
    check_positive("max_iters", max_iters)
    mg = Multigrid(op)
    x = x0.copy() if x0 is not None else op.new_field()
    r = op.new_field()
    op.residual(b, x, out=r)
    r0_norm = residual_norm(op.dot(r, r))
    threshold = eps * r0_norm
    history = [r0_norm]
    res_norm = r0_norm
    converged = r0_norm <= threshold
    iterations = 0
    while not converged and iterations < max_iters:
        x.interior += mg.cycle(r).interior
        op.residual(b, x, out=r)
        res_norm = residual_norm(op.dot(r, r))
        iterations += 1
        history.append(res_norm)
        converged = res_norm <= threshold
    result = SolveResult(
        x=x, solver="multigrid", converged=converged, iterations=iterations,
        residual_norm=res_norm, initial_residual_norm=r0_norm,
        history=history, events=op.events)
    result.n_levels = mg.n_levels
    return result
