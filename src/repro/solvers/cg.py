"""(Preconditioned) conjugate gradient solver.

Communication per iteration (the quantities the paper's scaling analysis is
built on):

- one depth-1 halo exchange (inside the matvec), and
- two global reductions: ``pw = <p, Ap>`` and the fused ``(<r,z>, <r,r>)``
  pair — the fusion of the convergence-check and direction dot products into
  a single allreduce is the "multiple dot products combined into a single
  communication step" restructuring the paper mentions (§VII).

The CG coefficients ``alpha_i``/``beta_i`` are recorded so the Lanczos
eigenvalue estimation (:mod:`repro.solvers.eigen`) can consume them — this
is how CPPCG obtains its spectrum bounds (§III-D).
"""

from __future__ import annotations

from repro.mesh.field import Field
from repro.numerics.breakdown import residual_norm
from repro.solvers.defences import Defences
from repro.solvers.operator import StencilOperator2D
from repro.solvers.preconditioners import (
    IdentityPreconditioner,
    Preconditioner,
)
from repro.solvers.result import SolveResult
from repro.utils.errors import ConfigurationError, stall_error
from repro.utils.validation import check_finite_field, check_positive

#: Machine-checked communication budget per CG iteration (enforced by
#: ``python -m repro.analysis``): one depth-1 halo exchange inside the
#: matvec and two fused allreduces — ``<p, Ap>`` and the combined
#: ``(<r,z>, <r,r>)`` pair.  The scaling figures assume exactly this.
COMM_CONTRACT = {
    "solver": "cg",
    "halo_exchanges_per_iter": 1,
    "allreduces_per_iter": 2,
    "halo_depth": 1,
}


class CGState:
    """The live CG recurrence: fields, scalars and coefficient records.

    :meth:`snapshot` and :meth:`restore` are the one definition of "the
    state of a CG solve": a guard checkpoint (and its durable shard) holds
    what ``snapshot`` returns, and a guard rollback and an exact
    ``resume_state`` resume both reinstate it through ``restore``.
    """

    def __init__(self, op, M, x, tracer, solver_name):
        self.op, self.M, self.x = op, M, x
        self.tracer, self.solver = tracer, solver_name
        self.identity = isinstance(M, IdentityPreconditioner)
        self.r, self.p, self.w = (op.new_field() for _ in range(3))
        # For the identity preconditioner z aliases r.
        self.z = self.r if self.identity else op.new_field()
        self.alphas: list[float] = []
        self.betas: list[float] = []
        self.history: list[float] = []
        self.iterations = self.precond_applies = 0
        self.rz = self.rr = self.reference = self.res_norm = 0.0

    def precondition(self) -> float:
        """``z = M^-1 r`` and the fused ``(<r, z>, <r, r>)`` reduction;
        returns ``<r, z>`` and leaves ``<r, r>`` in ``rr``."""
        if self.identity:
            (rz,) = self.op.dots([(self.r, self.r)])
            self.rr = rz
        else:
            with self.tracer.span("precond", self.solver):
                self.M.apply(self.r, self.z)
            self.precond_applies += 1
            rz, self.rr = self.op.dots([(self.r, self.z), (self.r, self.r)])
        return rz

    def splice(self, true_rr: float) -> None:
        """Residual replacement (van der Vorst-Ye): adopt the true residual
        just computed into ``w`` and restart the search direction."""
        self.r.interior[...] = self.w.interior
        if self.identity:
            self.rz_new = self.rr = true_rr
        else:
            self.M.apply(self.r, self.z)
            self.precond_applies += 1
            self.rz_new, self.rr = self.op.dots([(self.r, self.z),
                                                 (self.r, self.r)])
        self.beta = 0.0
        self.res_norm = self.history[-1] = residual_norm(self.rr)

    def snapshot(self) -> tuple[dict, dict]:
        """``(fields, scalars)`` at an iteration boundary."""
        return ({"x": self.x, "r": self.r, "p": self.p},
                {"rz": self.rz, "rr": self.rr, "pa": self.precond_applies,
                 "steps": len(self.alphas), "reference": self.reference})

    def restore(self, iteration: int, scalars: dict) -> None:
        """Reinstate a snapshot's scalars (its field data is already back
        in place) and drop the coefficients/history recorded since."""
        self.iterations = int(iteration)
        self.rz, self.rr = float(scalars["rz"]), float(scalars["rr"])
        self.precond_applies = int(scalars["pa"])
        self.reference = float(scalars["reference"])
        steps = int(scalars["steps"])
        del self.alphas[steps:], self.betas[steps:]
        self.res_norm = residual_norm(self.rr)
        self.history[steps:] = [self.res_norm]


def cg_solve(
    op: StencilOperator2D,
    b: Field,
    x0: Field | None = None,
    *,
    eps: float = 1e-10,
    max_iters: int = 10_000,
    preconditioner: Preconditioner | None = None,
    reference_norm: float | None = None,
    solver_name: str = "cg",
    raise_on_stall: bool = False,
    defences: Defences | None = None,
    resume_state: dict | None = None,
) -> SolveResult:
    """Solve ``A x = b`` with (preconditioned) CG.

    Parameters
    ----------
    op, b, x0:
        Operator, right-hand side, and optional initial guess (zero default).
    eps:
        Relative tolerance: converged when ``||r|| <= eps * reference``.
    max_iters:
        Outer-iteration budget.
    preconditioner:
        ``z = M^{-1} r`` provider; identity when omitted.  Pass a
        :class:`~repro.solvers.chebyshev.ChebyshevPreconditioner` to get
        CPPCG's outer loop.
    reference_norm:
        Norm the tolerance is relative to; defaults to the *initial residual
        norm* of this call.  PPCG's second phase passes the phase-1 value so
        the overall stopping criterion is unchanged by the switch-over.
    raise_on_stall:
        Raise :class:`ConvergenceError` instead of returning an unconverged
        result when the budget is exhausted.
    defences:
        The :class:`~repro.solvers.defences.Defences` watching this
        recurrence (guard checkpoint/rollback, ABFT replay, residual
        replacement, stagnation window, cancellation).  The default is
        none of them: byte-identical to the bare algorithm.
    resume_state:
        Exact mid-solve resume from a durable guard snapshot:
        ``{"iteration": k, "arrays": ..., "scalars": ...}`` as
        :meth:`CGState.snapshot` saved it (the shape of a
        :class:`~repro.resilience.checkpoint.SolverCheckpointStore`
        shard).  The pre-loop phase is skipped and the recurrence
        continues from iteration ``k`` — a guard rollback into a fresh
        process, **bit-identical** to the uninterrupted run from ``k`` on
        provided nothing perturbs the replay: no fault injection, no
        residual replacement (its condition estimates depend on the
        truncated coefficient history).  ``x0`` and ``reference_norm``
        are ignored.

    Returns
    -------
    SolveResult
        With ``alphas``/``betas`` attached as attributes for eigenvalue
        estimation.
    """
    check_positive("eps", eps)
    check_positive("max_iters", max_iters)
    check_finite_field("b", b)
    check_finite_field("x0", x0)
    defences = defences if defences is not None else Defences()
    M = preconditioner if preconditioner is not None else IdentityPreconditioner(op)
    from repro.observe.trace import tracer_of
    tracer = tracer_of(op)

    resuming = resume_state is not None
    s = CGState(op, M, x0.copy() if x0 is not None and not resuming
                else op.new_field(), tracer, solver_name)
    if resuming:
        if defences.replace_interval:
            raise ConfigurationError(
                "exact CG resume is incompatible with residual "
                "replacement (replace_interval must be 0)")
        for name, field in s.snapshot()[0].items():
            field.data[...] = resume_state["arrays"][name]
        s.restore(resume_state["iteration"], resume_state["scalars"])
        r0_norm = s.reference
    else:
        op.residual(b, s.x, out=s.r)
        # (the pre-loop z = M^-1 r counts toward inner-iteration accounting)
        s.rz = s.precondition()
        s.p.data[...] = s.z.data
        r0_norm = s.res_norm = residual_norm(s.rr)
        s.reference = r0_norm if reference_norm is None else reference_norm
        s.history.append(r0_norm)
    threshold = eps * s.reference
    converged = s.res_norm <= threshold
    watch = defences.watch(s, op, solver_name)

    while not converged and s.iterations < max_iters:
        watch.boundary()
        # The span covers the full loop body, so ``iteration`` spans are
        # strict parents of the halo/allreduce/precond spans within —
        # `continue`/`break`/raise all close it cleanly.
        with tracer.span("iteration", solver_name):
            watch.begin()
            # Fused matvec + direction dot: one exchange, one allreduce.
            pw = op.apply_dot(s.p, s.w)
            if watch.curvature(pw):
                continue
            alpha = s.rz / pw
            s.x.axpy(alpha, s.p, op.kernels)
            s.r.axpy(-alpha, s.w, op.kernels)
            s.rz_new = s.precondition()
            s.beta = s.rz_new / s.rz
            s.alphas.append(float(alpha))
            s.betas.append(float(s.beta))
            s.iterations += 1
            s.res_norm = residual_norm(s.rr)
            s.history.append(s.res_norm)
            if watch.residual() or watch.verify(b, threshold):
                continue
            if s.res_norm <= threshold:
                converged = True
                break
            if watch.coefficient(s.beta):
                continue
            s.p.aypx(s.beta, s.z, op.kernels)
            s.rz = s.rz_new

    if not converged and raise_on_stall:
        raise stall_error(solver_name, s.iterations, s.res_norm,
                          s.reference, eps)

    result = SolveResult(
        x=s.x,
        solver=solver_name,
        converged=converged,
        iterations=s.iterations,
        inner_iterations=s.precond_applies * M.inner_steps,
        residual_norm=s.res_norm,
        initial_residual_norm=r0_norm,
        history=s.history,
        events=op.events,
    )
    # CG recurrence coefficients for Lanczos eigenvalue estimation.
    result.alphas = s.alphas
    result.betas = s.betas
    # Residual-replacement accounting for harnesses/stability sweeps.
    result.replacement = watch.replacer.stats if watch.replacer else None
    return result
