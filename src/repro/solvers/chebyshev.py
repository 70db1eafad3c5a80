"""Chebyshev acceleration: standalone solver and CPPCG preconditioner.

Given eigenvalue bounds ``[lam_min, lam_max]`` of the (preconditioned)
operator, the Chebyshev recurrence (Saad, *Iterative Methods for Sparse
Linear Systems*, Alg. 12.1) drives the residual down with **no dot
products** — per step it needs only one stencil application and (at halo
depth 1) one neighbour halo exchange:

    theta = (lam_max+lam_min)/2,  delta = (lam_max-lam_min)/2,  sigma = theta/delta
    d_0 = M^{-1} r_0 / theta,     rho_0 = 1/sigma
    step j:   z += d;   r -= A d
              rho' = 1/(2 sigma - rho)
              d <- rho' rho d + (2 rho'/delta) M^{-1} r;   rho <- rho'

**Matrix powers kernel** (paper §IV-C2): with ``halo_depth = n > 1`` the
iteration exchanges an ``n``-deep halo once per ``n`` steps and runs each
step on loop bounds extended by ``n-1-s`` cells toward neighbouring ranks
(``s`` = steps since the exchange).  The redundant overlap computation is
recorded through the operator's ``matvec`` cell counts, and the exchange
count drops by the factor ``n`` — exactly the communication/computation
trade the paper evaluates at depths 1/4/8/16.

The block Jacobi preconditioner cannot be combined with matrix powers
(its strip partition would need fresh neighbour values every step —
paper §IV-C2 end); with ``halo_depth == 1`` it is applied per inner step
with a single depth-1 exchange of the direction vector.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.field import Field
from repro.numerics.breakdown import residual_norm
from repro.solvers.cg import cg_solve
from repro.solvers.defences import Defences
from repro.solvers.eigen import EigenBounds, spectrum_bounds
from repro.solvers.operator import StencilOperator2D
from repro.solvers.preconditioners import (
    BlockJacobiPreconditioner,
    DiagonalPreconditioner,
    IdentityPreconditioner,
    Preconditioner,
    make_local_preconditioner,
)
from repro.solvers.result import SolveResult
from repro.utils.errors import (
    CommunicationError,
    ConfigurationError,
    stall_error,
)
from repro.utils.validation import check_finite_field, check_positive

#: Machine-checked communication budget (see ``repro.analysis``).  The
#: Chebyshev recurrence itself (``ChebyshevIteration.run``) performs **no
#: global reductions** — that is the paper's communication-avoiding
#: property — and one halo exchange per step at depth 1 (amortised to
#: ``1/halo_depth`` by the matrix powers kernel).  The standalone solver
#: additionally pays one allreduce per :data:`CHECK_INTERVAL` steps for
#: the convergence check, declared as ``allreduces_per_check``.
COMM_CONTRACT = {
    "solver": "chebyshev",
    "halo_exchanges_per_iter": 1,
    "allreduces_per_iter": 0,
    "allreduces_per_check": 1,
    "halo_depth": 1,
    "hot_function": "ChebyshevIteration.run",
}

#: Steps of the standalone solver between residual-norm checks.
CHECK_INTERVAL = 10


class ChebyshevIteration:
    """Stateful Chebyshev recurrence advancing a residual field.

    Mutates ``rr`` (the residual) in place and accumulates the solution
    update into ``accum.interior``.  The caller may interleave convergence
    checks between :meth:`run` calls; recurrence state carries across.
    """

    def __init__(
        self,
        op: StencilOperator2D,
        rr: Field,
        accum: Field,
        bounds: EigenBounds,
        halo_depth: int = 1,
        local_precond: Preconditioner | None = None,
    ):
        if not 1 <= halo_depth <= op.halo:
            raise ConfigurationError(
                f"halo_depth {halo_depth} must be in [1, field halo {op.halo}]")
        self.op = op
        self.rr = rr
        self.accum = accum
        self.bounds = bounds
        self.n = halo_depth
        self.M = local_precond if local_precond is not None \
            else IdentityPreconditioner(op)
        if isinstance(self.M, BlockJacobiPreconditioner) and self.n > 1:
            raise ConfigurationError(
                "block Jacobi cannot be combined with matrix powers "
                "(halo_depth > 1): the strip solve needs up-to-date whole "
                "blocks every step (paper §IV-C2)")
        # Pointwise preconditioners step on extended bounds (matrix powers);
        # block Jacobi steps on the interior with a depth-1 exchange.
        self._pointwise_M = isinstance(
            self.M, (IdentityPreconditioner, DiagonalPreconditioner))
        self._inv_diag = (self.M.inv_diag_padded if isinstance(
            self.M, DiagonalPreconditioner) else None)
        self.d = op.new_field()
        self.w = op.new_field()
        self.theta = bounds.theta
        self.delta = bounds.delta
        if self.delta <= 0:
            raise ConfigurationError(
                "Chebyshev needs lam_max > lam_min (delta > 0); got equal bounds")
        self.sigma = self.theta / self.delta
        # The operator's inner step on d, w, rr and accum, bound at the
        # first extended step.
        self._step = None
        self.restart(accum)

    def __getstate__(self) -> dict:
        # A pickle or deepcopy must not carry the bound step's raw
        # addresses: the copy binds its own arrays at its next step.
        return {**self.__dict__, "_step": None}

    def restart(self, accum: Field) -> None:
        """Start the recurrence afresh from ``rr``, accumulating into
        ``accum`` (the step is rebound only if that is another field)."""
        if accum is not self.accum:
            self.accum, self._step = accum, None
        self.rho = 1.0 / self.sigma
        self.steps_done = 0
        self._since_exchange = 0

    # -- preconditioner application on a padded region -----------------------------

    def _precondition(self, src: Field, dst: Field, region: tuple,
                      scale: float) -> None:
        """``dst[region] = scale * M^{-1} src[region]``.

        ``region`` is the tuple of padded-array slices returned by
        ``Field.region`` (two slices in 2D, three in 3D).  Overflow is not
        reported, as in every other pass of a step: a diverging
        recurrence is for the solvers' guards to see, in the reductions.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            if self._inv_diag is None:
                np.multiply(src.data[region], scale, out=dst.data[region])
            else:  # diagonal: the only other preconditioner stepping extended
                self.M.apply_region(src, dst, region)
                dst.data[region] *= scale

    def run(self, steps: int) -> None:
        """Advance ``steps`` Chebyshev steps."""
        from repro.observe.trace import tracer_of
        tracer = tracer_of(self.op)
        # Named "cheby_step", not "iteration": under CPPCG these nest
        # inside the outer CG's precond span and must not inflate its
        # iteration count.
        step = self._step_extended if self._pointwise_M \
            else self._step_interior
        for _ in range(steps):
            with tracer.span("cheby_step", self.n):
                step()
                self.steps_done += 1

    # -- matrix-powers (extended bounds) stepping ----------------------------------

    def _step_extended(self) -> None:
        op, n = self.op, self.n
        s = self._since_exchange
        if self.steps_done == 0:
            # d_0 derives pointwise from the freshly exchanged residual, so
            # the first block needs no exchange of d itself.
            op.exchanger.exchange(self.rr, depth=n)
            region = self.rr.region(n)
            self._precondition(self.rr, self.d, region, 1.0 / self.theta)
            self._since_exchange = s = 0
        elif s == 0:
            # At depth 1 the residual is only ever read on the interior, so
            # only the direction vector needs fresh halos (as in TeaLeaf).
            fields = [self.rr, self.d] if n > 1 else [self.d]
            op.exchanger.exchange(fields, depth=n)
        ext = n - 1 - s
        rho_new = 1.0 / (2.0 * self.sigma - self.rho)
        # d <- rho' rho d + (2 rho'/delta) M^{-1} r  on the extended region
        scale, beta = 2.0 * rho_new / self.delta, rho_new * self.rho
        if self._step is None:
            self._step = op.bind_chebyshev(self.d, self.w, self.rr,
                                           self.accum, self._inv_diag, n)
        # One kernel call where the backend bound the step, else its passes.
        if not self._step.step(ext, scale, beta):
            self.accum.axpy(1.0, self.d, op.kernels)
            self.rr.axpy(-1.0, self.w, op.kernels, ext)
            self._precondition(self.rr, self.w, self.rr.region(ext), scale)
            self.d.aypx(beta, self.w, op.kernels, ext)
        self.rho = rho_new
        self._since_exchange = (s + 1) % n

    # -- interior-only stepping (block Jacobi inner preconditioner) -----------------

    def _step_interior(self) -> None:
        op = self.op
        if self.steps_done == 0:
            self.M.apply(self.rr, self.d)
            self.d.interior[...] /= self.theta
        op.apply(self.d, self.w)  # depth-1 exchange of d inside
        self.accum.axpy(1.0, self.d, op.kernels)
        self.rr.axpy(-1.0, self.w, op.kernels)
        rho_new = 1.0 / (2.0 * self.sigma - self.rho)
        self.M.apply(self.rr, self.w)
        wi = self.w.interior
        np.multiply(wi, 2.0 * rho_new / self.delta, out=wi)
        self.d.aypx(rho_new * self.rho, self.w, op.kernels)
        self.rho = rho_new


class ChebyshevPreconditioner(Preconditioner):
    """The "C" of CPPCG: ``z ~= A^{-1} r`` via ``m`` Chebyshev steps.

    Applying this inside PCG yields the shifted/scaled Chebyshev polynomial
    preconditioner of Ashby, Manteuffel & Otto (Eq. 2): the induced
    ``B(lambda) lambda = 1 - T_m(xi(lambda))/T_m(xi(0))`` is SPD for any SPD ``A`` whose
    spectrum lies within the supplied bounds, so outer CG remains valid.
    Its inner steps apply ``local_precond`` (None: the identity), which
    the caller builds and may share — CPPCG's warm-up uses the same one.
    """

    name = "chebyshev"
    communication_free = False  # needs halo exchanges (still no dot products)

    def __init__(
        self,
        op: StencilOperator2D,
        bounds: EigenBounds,
        steps: int = 10,
        halo_depth: int = 1,
        local_precond: Preconditioner | None = None,
    ):
        check_positive("steps", steps)
        self.op = op
        self.bounds = bounds
        self.steps = steps
        self.halo_depth = halo_depth
        self._inner = local_precond
        self._rr = op.new_field()
        self._it: ChebyshevIteration | None = None
        self.applications = 0

    @property
    def inner_steps(self) -> int:
        return self.steps

    def apply(self, r: Field, z: Field) -> None:
        self._rr.data[...] = r.data
        z.data.fill(0.0)
        # One recurrence — its d, w and bound step — for every application.
        if self._it is None:
            self._it = ChebyshevIteration(self.op, self._rr, z, self.bounds,
                                          halo_depth=self.halo_depth,
                                          local_precond=self._inner)
        else:
            self._it.restart(z)
        self._it.run(self.steps)
        self.applications += 1


class _Recurrence:
    """What a standalone Chebyshev solve checkpoints: iterate, residual,
    direction and the recurrence scalars (see ``Defences.watch``)."""

    def __init__(self, x: Field, rr: Field, it: ChebyshevIteration,
                 history: list[float]):
        self.x, self.rr, self.it, self.history = x, rr, it, history
        self.res_norm = history[-1]
        self.offset = 0  # recurrence steps retired by abandoned deep runs

    @property
    def iterations(self) -> int:
        return self.offset + self.it.steps_done

    def snapshot(self) -> tuple[dict, dict]:
        it = self.it
        return ({"x": self.x, "rr": self.rr, "d": it.d},
                {"rho": it.rho, "steps": it.steps_done,
                 "since": it._since_exchange, "hist": len(self.history)})

    def restore(self, iteration: int, scalars: dict) -> None:
        it = self.it
        it.rho, it.steps_done = scalars["rho"], scalars["steps"]
        it._since_exchange = scalars["since"]
        del self.history[scalars["hist"]:]
        self.res_norm = self.history[-1]


def warm_up(op: StencilOperator2D, b: Field, x0: Field | None,
            M: Preconditioner, *, eps: float, warmup_iters: int,
            bounds: EigenBounds | None, solver_name: str,
            defences: Defences) -> tuple[SolveResult, EigenBounds | None]:
    """The Chebyshev solvers' prologue (paper §III-D), under a ``phase``
    span: ``warmup_iters`` of CG preconditioned by the local ``M``, then
    the interval of ``M^{-1} A`` unless the caller supplied ``bounds``
    (:func:`~repro.solvers.eigen.spectrum_bounds`).

    Returns ``(warmup, bounds)``; ``bounds`` is None when the warm-up
    itself converged, and ``warmup`` is then the finished result.
    """
    from repro.observe.trace import tracer_of
    with tracer_of(op).span("phase", "warmup"):
        warmup = cg_solve(op, b, x0, eps=eps, max_iters=warmup_iters,
                          preconditioner=M, solver_name=solver_name,
                          defences=defences.warmup())
        if warmup.converged:
            warmup.warmup_iterations = warmup.iterations
            warmup.iterations = 0
            return warmup, None
        if bounds is None:
            bounds = spectrum_bounds(op, M.name, warmup.alphas,
                                     warmup.betas)
    return warmup, bounds


def chebyshev_solve(
    op: StencilOperator2D,
    b: Field,
    x0: Field | None = None,
    *,
    eps: float = 1e-10,
    max_iters: int = 20_000,
    warmup_iters: int = 25,
    preconditioner: str = "none",
    halo_depth: int = 1,
    bounds: EigenBounds | None = None,
    raise_on_stall: bool = False,
    degrade: bool = False,
    defences: Defences | None = None,
) -> SolveResult:
    """Standalone Chebyshev solver (TeaLeaf ``tl_use_chebyshev``).

    Runs ``warmup_iters`` of (P)CG for the interval (:func:`warm_up`;
    ``bounds`` replaces the warm-up's), then iterates the Chebyshev
    recurrence with a residual-norm check (one allreduce) every
    :data:`CHECK_INTERVAL` steps — between checks there is **no global
    communication at all**.

    ``raise_on_stall`` raises :class:`ConvergenceError` (solver name,
    final relative residual, iteration count) when the budget runs out
    unconverged.  ``degrade`` lets a matrix-powers run (``halo_depth >
    1``) whose deep exchanges keep failing restart the recurrence at
    depth 1 instead of aborting; the result then carries ``degraded =
    True``.  Of the ``defences``
    (:class:`~repro.solvers.defences.Defences`) the guard checkpoints and
    rolls back the recurrence at each convergence check, the stagnation
    window counts residual *checks* (:data:`CHECK_INTERVAL` steps each), and
    cancellation fires between checks — right after the previous chunk's
    convergence allreduce synchronised every rank.
    """
    check_finite_field("b", b)
    check_finite_field("x0", x0)
    defences = defences if defences is not None else Defences()
    local_M = make_local_preconditioner(op, preconditioner)
    warmup, bounds = warm_up(op, b, x0, local_M, eps=eps,
                             warmup_iters=warmup_iters, bounds=bounds,
                             solver_name="chebyshev", defences=defences)
    if bounds is None:
        return warmup

    x = warmup.x
    rr = op.new_field()
    op.residual(b, x, out=rr)
    st = _Recurrence(x, rr, ChebyshevIteration(
        op, rr, x, bounds, halo_depth=halo_depth, local_precond=local_M),
        list(warmup.history))
    watch = defences.watch(st, op, "chebyshev")
    threshold = eps * warmup.initial_residual_norm
    converged = False
    degraded = False
    while st.iterations < max_iters:
        watch.boundary()
        watch.begin()
        try:
            st.it.run(min(CHECK_INTERVAL, max_iters - st.iterations))
        except CommunicationError:
            if not (degrade and st.it.n > 1):
                raise
            # The matrix powers kernel's deep exchanges keep failing
            # (retries exhausted): restart the recurrence at depth 1 from
            # the current iterate — Chebyshev restarts are legal, only
            # the communication amortisation is lost.
            st.offset += st.it.steps_done
            op.residual(b, x, out=rr)
            st.it = ChebyshevIteration(op, rr, x, bounds, halo_depth=1,
                                       local_precond=local_M)
            degraded = True
            if watch.guard is not None:
                # Re-anchor the checkpoint on the new recurrence state:
                # the previous snapshot referenced the abandoned one.
                watch.checkpoint()
            continue
        st.res_norm = residual_norm(op.dot(rr, rr))
        st.history.append(st.res_norm)
        # A non-finite residual means the recurrence diverged (a caller's
        # interval that misses the top of the spectrum, or a fault): the
        # guard rewinds, the breakdown check raises.
        if watch.residual():
            continue
        if st.res_norm <= threshold:
            converged = True
            break

    if not converged and raise_on_stall:
        raise stall_error("chebyshev", st.iterations, st.res_norm,
                          warmup.initial_residual_norm, eps)

    result = SolveResult(
        x=x,
        solver="chebyshev",
        converged=converged,
        iterations=st.iterations,
        warmup_iterations=warmup.iterations,
        residual_norm=st.res_norm,
        initial_residual_norm=warmup.initial_residual_norm,
        history=st.history,
        eigen_bounds=(bounds.lam_min, bounds.lam_max),
        events=op.events,
    )
    result.degraded = degraded
    if degraded:
        result.degraded_reason = (f"matrix-powers halo depth fell back "
                                  f"{halo_depth} -> 1 after repeated "
                                  "communication failures")
    return result
