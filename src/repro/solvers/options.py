"""Unified solver configuration object.

Mirrors the TeaLeaf deck's ``tl_*`` settings; validated once at
construction so downstream code can trust it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.utils.validation import check_in, check_positive, require

SOLVERS = ("jacobi", "cg", "cg_fused", "dcg", "chebyshev", "ppcg", "mgcg")
PRECONDITIONERS = ("none", "diagonal", "block_jacobi")
WORKING_DTYPES = ("float32", "float64")
KERNEL_BACKENDS = ("numpy", "fused")


@dataclass(frozen=True)
class SolverOptions:
    """Validated solver configuration.

    Attributes
    ----------
    solver:
        ``jacobi`` | ``cg`` | ``chebyshev`` | ``ppcg`` (= CPPCG) |
        ``mgcg`` (the CG + geometric-multigrid baseline standing in for
        PETSc CG + BoomerAMG).
    eps:
        Relative residual tolerance (TeaLeaf ``tl_eps``).
    max_iters:
        Outer iteration budget (``tl_max_iters``).
    preconditioner:
        Local preconditioner for CG, and inner preconditioner for
        Chebyshev/PPCG inner steps.
    ppcg_inner_steps:
        Chebyshev polynomial degree per outer iteration
        (``tl_ppcg_inner_steps``).
    halo_depth:
        Matrix-powers halo depth for Chebyshev/PPCG inner iterations; the
        paper's configurations "PPCG - n" set this to 1/4/8/16.
    eigen_warmup_iters / eigen_safety:
        Eigenvalue-estimation controls (§III-D).
    check_interval:
        Residual-check cadence for the standalone Chebyshev solver.
    """

    solver: str = "cg"
    eps: float = 1e-10
    max_iters: int = 10_000
    preconditioner: str = "none"
    ppcg_inner_steps: int = 10
    halo_depth: int = 1
    eigen_warmup_iters: int = 25
    eigen_safety: tuple[float, float] = (0.95, 1.05)
    check_interval: int = 10
    #: PPCG robustness: re-estimate eigenvalue bounds and restart when the
    #: outer iteration stalls or breaks down (addresses the paper's §VIII
    #: open question about robustness at extreme condition numbers).
    adaptive: bool = False
    #: Deflated CG (solver="dcg"): subdomain partition (qx, qy).
    deflation_blocks: tuple[int, int] = (4, 4)
    #: Raise :class:`~repro.utils.errors.ConvergenceError` (solver name,
    #: final relative residual, iteration count) instead of returning an
    #: unconverged result when the iteration budget is exhausted.
    #: Honoured uniformly by cg, ppcg and chebyshev.
    raise_on_stall: bool = False
    #: Resilience (see :mod:`repro.resilience`): checkpoint the solver
    #: state every this many iterations and roll back on unhealthy
    #: residuals.  0 disables the guard entirely.
    guard_interval: int = 0
    #: An iteration is unhealthy when its residual norm exceeds this
    #: multiple of the best norm seen so far (or is NaN/Inf).
    guard_divergence_ratio: float = 1e4
    #: Rollback budget before the guard gives up and raises.
    guard_max_rollbacks: int = 3
    #: Graceful degradation: CPPCG falls back to plain CG on unusable
    #: spectrum bounds; matrix-powers depth falls back to 1 on repeated
    #: halo-exchange failure.
    degrade: bool = False
    #: Durable checkpointing (see :mod:`repro.resilience.checkpoint`):
    #: commit an atomic on-disk simulation checkpoint every this many
    #: steps.  0 disables durable checkpoints; > 0 requires
    #: ``checkpoint_dir``.
    checkpoint_interval: int = 0
    #: Directory receiving the versioned ``step-*`` checkpoint
    #: directories (and the guard's per-rank solver shards).
    checkpoint_dir: str = ""
    #: Rank-loss recovery (ULFM-style shrink/respawn, see
    #: :mod:`repro.resilience.recovery`).  Requires durable state to
    #: resume from: either ``checkpoint_interval > 0`` or
    #: ``guard_interval > 0`` with a ``checkpoint_dir``.
    recovery: bool = False
    #: Integrity layer (:class:`~repro.resilience.integrity.ChecksumComm`):
    #: checksummed redundant message envelopes + duplicate-lane
    #: reductions, turning silent payload corruption into retryable
    #: faults.
    integrity: bool = False
    #: ABFT residual replay: every this many iterations of a CG
    #: recurrence (cg, ppcg, dcg, mgcg) recompute the true residual
    #: ``b - A x`` and compare against the recurrence (0 disables).
    abft_interval: int = 0
    #: Relative drift tolerated by the ABFT replay before it triggers a
    #: rollback.
    abft_tolerance: float = 1e-6
    #: Working precision of the solve (:mod:`repro.numerics`): fields,
    #: operator coefficients and inner recurrence arithmetic run at this
    #: dtype; global reductions stay float64 regardless.
    dtype: str = "float64"
    #: Mixed-precision iterative refinement: run the inner solver at
    #: ``dtype`` and recover full accuracy through float64 defect
    #: re-solves, escalating precision (with a structured
    #: :class:`~repro.numerics.refine.PrecisionDiagnosis`) when the
    #: refinement stagnates.  No effect when ``dtype == "float64"``.
    refine: bool = False
    #: Outer refinement-step budget.
    refine_max_steps: int = 8
    #: A refinement step stagnates when the defect norm fails to contract
    #: below this fraction of the previous step's norm.
    refine_stagnation: float = 0.5
    #: Residual replacement (cg/ppcg): every this many outer iterations
    #: recompute the true residual ``b - A x`` and splice it into the
    #: recurrence when the drift exceeds the rounding-error bound.
    #: 0 disables replacement.
    replace_interval: int = 0
    #: Condition-aware cadence: shrink the replacement interval toward
    #: ``1/sqrt(u * kappa)`` using live Lanczos condition estimates.
    replace_adaptive: bool = False
    #: Explicit relative drift bound for splicing; 0 derives the bound
    #: from the running rounding-error estimate.
    replace_tolerance: float = 0.0
    #: Breakdown stagnation window (:class:`~repro.numerics.breakdown.
    #: BreakdownGuard`): raise when the residual norm fails to improve
    #: across this many iterations.  0 disables the window.
    stagnation_window: int = 0
    #: Compute the true residual ``b - A x`` once after the solve (under
    #: the replacement event scope) and attach it to the result.
    true_residual: bool = False
    #: Kernel backend (:mod:`repro.kernels`) the solve's hot paths route
    #: through (TeaLeaf deck key ``tl_kernel_backend``).  ``numpy`` is
    #: the baseline (compiled loops where the machine has a C compiler);
    #: ``fused`` is its NumPy replay with block-partial reductions.
    kernel_backend: str = "numpy"
    #: Per-attempt receive timeout in seconds for the resilient comm
    #: stack (TeaLeaf-style deck key ``tl_comm_timeout``, CLI
    #: ``--comm-timeout``).  0 keeps the library default
    #: (:data:`repro.resilience.runner.DEFAULT_RECV_TIMEOUT_S`); a
    #: positive value overrides it, turning a dead peer into a
    #: :class:`~repro.utils.errors.CommunicationError` after that long.
    #: Must be at least 0.05 s when set: the thread world polls its
    #: mailboxes every 20 ms, so tighter deadlines are pure noise.
    comm_timeout: float = 0.0

    def __post_init__(self):
        check_in("solver", self.solver, SOLVERS)
        check_in("preconditioner", self.preconditioner, PRECONDITIONERS)
        check_positive("eps", self.eps)
        check_positive("max_iters", self.max_iters)
        check_positive("ppcg_inner_steps", self.ppcg_inner_steps)
        check_positive("halo_depth", self.halo_depth)
        check_positive("eigen_warmup_iters", self.eigen_warmup_iters)
        check_positive("check_interval", self.check_interval)
        qx, qy = self.deflation_blocks
        check_positive("deflation_blocks[0]", qx)
        check_positive("deflation_blocks[1]", qy)
        check_positive("guard_interval", self.guard_interval, allow_zero=True)
        check_positive("guard_divergence_ratio", self.guard_divergence_ratio)
        check_positive("guard_max_rollbacks", self.guard_max_rollbacks,
                       allow_zero=True)
        require(
            not (self.preconditioner == "block_jacobi" and self.halo_depth > 1
                 and self.solver in ("chebyshev", "ppcg")),
            "block Jacobi cannot be combined with matrix powers "
            "(halo_depth > 1); see paper §IV-C2",
        )
        lo, hi = self.eigen_safety
        require(0 < lo <= 1.0 <= hi,
                f"eigen_safety must satisfy 0 < lo <= 1 <= hi, got {self.eigen_safety}")
        check_positive("checkpoint_interval", self.checkpoint_interval,
                       allow_zero=True)
        check_positive("abft_interval", self.abft_interval, allow_zero=True)
        check_positive("abft_tolerance", self.abft_tolerance)
        require(
            not (self.checkpoint_interval > 0 and not self.checkpoint_dir),
            "checkpoint_interval > 0 requires a checkpoint_dir to write "
            "the durable checkpoints into",
        )
        require(
            not (self.recovery
                 and self.checkpoint_interval <= 0
                 and self.guard_interval <= 0),
            "recovery enabled without a checkpoint cadence: set "
            "checkpoint_interval > 0 (durable step checkpoints) or "
            "guard_interval > 0 (durable solver shards) so there is "
            "state to resume from",
        )
        require(
            not (self.recovery and not self.checkpoint_dir),
            "recovery enabled without a checkpoint_dir: the respawned "
            "rank rebuilds its subdomain from the on-disk shards",
        )
        check_in("dtype", self.dtype, WORKING_DTYPES)
        check_in("kernel_backend", self.kernel_backend, KERNEL_BACKENDS)
        check_positive("refine_max_steps", self.refine_max_steps)
        require(0.0 < self.refine_stagnation < 1.0,
                f"refine_stagnation must be in (0, 1), "
                f"got {self.refine_stagnation}")
        check_positive("replace_interval", self.replace_interval,
                       allow_zero=True)
        check_positive("replace_tolerance", self.replace_tolerance,
                       allow_zero=True)
        check_positive("stagnation_window", self.stagnation_window,
                       allow_zero=True)
        require(
            not (self.replace_interval > 0
                 and self.solver not in ("cg", "ppcg")),
            "residual replacement is a CG-recurrence repair: "
            "replace_interval > 0 requires solver cg or ppcg",
        )
        require(
            not (self.abft_interval > 0
                 and self.solver in ("jacobi", "cg_fused", "chebyshev")),
            "the ABFT replay checks a CG recurrence against its true "
            "residual: abft_interval > 0 requires solver cg, ppcg, dcg "
            "or mgcg",
        )
        check_positive("comm_timeout", self.comm_timeout, allow_zero=True)
        require(
            not (0 < self.comm_timeout < 0.05),
            f"comm_timeout {self.comm_timeout} s is below the thread "
            "world's 20 ms mailbox poll quantum; use >= 0.05 s (or 0 for "
            "the library default)",
        )

    @property
    def required_field_halo(self) -> int:
        """Minimum halo depth the solve's fields must be allocated with."""
        if self.solver in ("chebyshev", "ppcg"):
            return max(1, self.halo_depth)
        return 1

    def label(self) -> str:
        """Figure-legend-style label, e.g. ``"PPCG - 16"`` or ``"CG - 1"``."""
        base = {"cg": "CG", "ppcg": "PPCG", "chebyshev": "Cheby",
                "jacobi": "Jacobi", "mgcg": "MG-CG", "cg_fused": "CG-F",
                "dcg": "DCG"}[self.solver]
        depth = self.halo_depth if self.solver in ("chebyshev", "ppcg") else 1
        return f"{base} - {depth}"


def options_to_dict(options: SolverOptions) -> dict:
    """JSON-ready :class:`SolverOptions` (tuples become lists) — what
    checkpoint manifests and chaos fixtures store."""
    return {k: (list(v) if isinstance(v, tuple) else v)
            for k, v in asdict(options).items()}


def options_from_dict(data: dict) -> SolverOptions:
    """Invert :func:`options_to_dict` (re-runs all option validation)."""
    raw = dict(data)
    for key in ("eigen_safety", "deflation_blocks"):
        if key in raw and isinstance(raw[key], list):
            raw[key] = tuple(raw[key])
    return SolverOptions(**raw)
