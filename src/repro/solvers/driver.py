"""Single entry point dispatching to the configured solver."""

from __future__ import annotations

from dataclasses import dataclass

from repro.mesh.field import Field
from repro.solvers.cg import cg_solve
from repro.solvers.chebyshev import chebyshev_solve
from repro.solvers.defences import Defences
from repro.solvers.jacobi import jacobi_solve
from repro.solvers.operator import StencilOperator2D
from repro.solvers.options import SolverOptions
from repro.solvers.ppcg import ppcg_solve
from repro.solvers.preconditioners import make_local_preconditioner
from repro.solvers.result import SolveResult
from repro.utils.errors import ConfigurationError


@dataclass(frozen=True)
class SolveSetup:
    """Reusable expensive setup artifacts injected into a solve.

    ``bounds`` replaces the Chebyshev/CPPCG interval the warm-up would
    give; ``preconditioner`` is a prebuilt local preconditioner
    object (e.g. a factorised
    :class:`~repro.solvers.preconditioners.BlockJacobiPreconditioner`)
    handed to the cg/cg_fused family instead of factorising per solve.
    Both default to ``None`` (= compute as usual).  The service layer's
    LRU setup cache keys these by (mesh, coefficients, options).
    """

    bounds: object | None = None
    preconditioner: object | None = None


def solve_linear(
    op: StencilOperator2D,
    b: Field,
    x0: Field | None = None,
    options: SolverOptions | None = None,
    guard=None,
    cancel=None,
    setup=None,
    resume_state=None,
) -> SolveResult:
    """Solve ``A x = b`` with the solver selected in ``options``.

    The operator's fields must have halo depth >=
    ``options.required_field_halo`` (matrix powers needs deep halos).

    The solve's :class:`~repro.solvers.defences.Defences` are built here,
    once, from ``options`` plus the two live objects a caller may hand
    in.  ``guard`` is an optional pre-built
    :class:`~repro.resilience.guard.SolverGuard` (so callers can share its
    iteration cell with a fault injector); when omitted and
    ``options.guard_interval > 0`` one is constructed from the options.
    ``cancel`` is an optional
    :class:`~repro.service.cancel.CancelToken`-like object (a fired token
    raises :class:`~repro.utils.errors.DeadlineExceeded` /
    :class:`~repro.utils.errors.Cancelled` coherently on every rank; an
    inert token is bit-transparent).  Every solver's iteration loop is
    watched by these defences, refined solves included.

    ``setup`` is an optional :class:`SolveSetup` of reusable expensive
    artifacts — Chebyshev eigenvalue bounds and a prefactorised local
    preconditioner — typically served by the service layer's LRU setup
    cache (:mod:`repro.service.cache`).

    ``resume_state`` is an optional exact mid-solve resume snapshot
    (see :func:`~repro.solvers.cg.cg_solve`); only the plain ``cg``
    solver supports it.
    """
    opt = options if options is not None else SolverOptions()
    if op.halo < opt.required_field_halo:
        raise ConfigurationError(
            f"{opt.label()} needs field halo >= {opt.required_field_halo}, "
            f"operator has {op.halo}")
    if opt.refine and opt.dtype != "float64":
        # Mixed-precision iterative refinement wraps whole inner solves
        # (which come back through this entry point with refine=False).
        from repro.numerics.refine import refined_solve
        return refined_solve(op, b, x0, opt, guard=guard, cancel=cancel,
                             setup=setup)
    defences = Defences.from_options(opt, guard, cancel)

    solve_op, bb, xx = op, b, x0
    if opt.dtype != str(op.dtype):
        # Demote the operator/fields to the working precision; the caller
        # keeps its own precision — the solution is promoted back below.
        from repro.numerics.precision import cast_field, cast_operator
        solve_op = cast_operator(op, opt.dtype)
        bb = cast_field(b, opt.dtype)
        xx = cast_field(x0, opt.dtype) if x0 is not None else None

    from repro.observe.trace import tracer_of
    with tracer_of(solve_op).span("solve", opt.solver):
        result = _dispatch(solve_op, bb, xx, opt, defences, setup,
                           resume_state)
    if result.x.data.dtype != b.data.dtype:
        result.x = Field(result.x.tile, result.x.halo,
                         result.x.data.astype(b.data.dtype))
    if opt.true_residual and result.true_residual_norm is None:
        from repro.numerics.replacement import attach_true_residual
        attach_true_residual(result, op, b)
    return result


def _dispatch(op, b, x0, opt, defences, setup=None,
              resume_state=None) -> SolveResult:
    if resume_state is not None and opt.solver != "cg":
        raise ConfigurationError(
            f"exact mid-solve resume is only supported for the plain "
            f"'cg' solver, not {opt.solver!r}")
    # What every solver takes: the iteration budget and the one watch.
    common = {"eps": opt.eps, "max_iters": opt.max_iters,
              "defences": defences}
    if opt.solver == "jacobi":
        return jacobi_solve(op, b, x0, **common)
    if opt.solver in ("cg", "cg_fused"):
        M = setup.preconditioner if setup is not None else None
        if M is None:
            M = make_local_preconditioner(op, opt.preconditioner)
        if opt.solver == "cg":
            return cg_solve(op, b, x0, **common, preconditioner=M,
                            raise_on_stall=opt.raise_on_stall,
                            resume_state=resume_state)
        from repro.solvers.cg_fused import cg_fused_solve
        return cg_fused_solve(op, b, x0, **common, preconditioner=M)
    if opt.solver == "dcg":
        from repro.solvers.deflation import deflated_cg_solve
        return deflated_cg_solve(op, b, x0, **common,
                                 blocks=opt.deflation_blocks,
                                 preconditioner=opt.preconditioner)
    if opt.solver in ("chebyshev", "ppcg"):
        spectral = dict(common, warmup_iters=opt.eigen_warmup_iters,
                        halo_depth=opt.halo_depth,
                        raise_on_stall=opt.raise_on_stall,
                        degrade=opt.degrade,
                        bounds=setup.bounds if setup is not None else None)
        if opt.solver == "chebyshev":
            return chebyshev_solve(op, b, x0, **spectral,
                                   preconditioner=opt.preconditioner)
        return ppcg_solve(op, b, x0, **spectral,
                          inner_steps=opt.ppcg_inner_steps,
                          inner_preconditioner=opt.preconditioner)
    if opt.solver == "mgcg":
        # Imported lazily: multigrid builds on this package.
        from repro.multigrid.mgcg import mgcg_solve
        return mgcg_solve(op, b, x0, **common)
    raise ConfigurationError(f"unknown solver {opt.solver!r}")
