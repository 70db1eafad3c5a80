"""Unified solver configuration object.

Mirrors the TeaLeaf deck's ``tl_*`` settings; validated once at
construction so downstream code can trust it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

from repro.utils.errors import ConfigurationError
from repro.utils.validation import check_in, check_positive, require

SOLVERS = ("jacobi", "cg", "cg_fused", "dcg", "chebyshev", "ppcg", "mgcg")
PRECONDITIONERS = ("none", "diagonal", "block_jacobi")
WORKING_DTYPES = ("float32", "float64")


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
    eigen_warmup_iters:
        CG warm-up iterations before the eigenvalue estimate (§III-D).

    A field is a setting that a deck key, a CLI flag or a campaign varies;
    a value nobody varies is a constant beside its one use (say,
    :data:`~repro.solvers.eigen.LAM_MIN_SAFETY`).
    """

    solver: str = "cg"
    eps: float = 1e-10
    max_iters: int = 10_000
    preconditioner: str = "none"
    ppcg_inner_steps: int = 10
    halo_depth: int = 1
    eigen_warmup_iters: int = 25
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
    #: Graceful degradation: CPPCG falls back to plain CG when its
    #: Chebyshev preconditioner breaks down; matrix-powers depth falls
    #: back to 1 on repeated halo-exchange failure.
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
        qx, qy = self.deflation_blocks
        check_positive("deflation_blocks[0]", qx)
        check_positive("deflation_blocks[1]", qy)
        check_positive("guard_interval", self.guard_interval, allow_zero=True)
        require(
            not (self.preconditioner == "block_jacobi" and self.halo_depth > 1
                 and self.solver in ("chebyshev", "ppcg")),
            "block Jacobi cannot be combined with matrix powers "
            "(halo_depth > 1); see paper §IV-C2",
        )
        check_positive("checkpoint_interval", self.checkpoint_interval,
                       allow_zero=True)
        check_positive("abft_interval", self.abft_interval, allow_zero=True)
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
    def kernel_backend(self) -> str:
        """The kernel backend (:mod:`repro.kernels`) the hot paths run
        on: always ``numpy``, whose bodies are a fact of the machine."""
        return "numpy"

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
    """Invert :func:`options_to_dict` (re-runs all option validation); a
    key that is not a field — say, one a removed option left in an older
    manifest — is a :class:`~repro.utils.errors.ConfigurationError`
    naming it."""
    unknown = sorted(set(data) - {f.name for f in fields(SolverOptions)})
    if unknown:
        raise ConfigurationError(
            f"unknown solver option(s) {', '.join(map(repr, unknown))}")
    raw = dict(data)
    if isinstance(raw.get("deflation_blocks"), list):
        raw["deflation_blocks"] = tuple(raw["deflation_blocks"])
    return SolverOptions(**raw)
