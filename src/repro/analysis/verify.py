"""Dynamic contract verification (``python -m repro.analysis --verify``).

Bridges the static contracts to reality: each solver configuration runs a
small crooked-pipe solve (two configurations the 12^3 crooked duct, so the
7-point operator and the three-phase exchange are proven under the same
stacks) through the rank program
(:func:`~repro.solvers.ranks.solve_on_ranks` — the road every harness
takes) on an instrumented stack, and the *measured* per-iteration
reduction/halo-exchange counts from the
:class:`~repro.utils.events.EventLog` are cross-checked against the
module's ``COMM_CONTRACT``.

Methodology: per solver configuration we run the same problem twice with
different iteration budgets (``eps`` is set unreachably tight so neither
run converges) and difference the two runs' event logs.  Setup
communication (initial residual, warm-up CG, deflation
coarse assembly, ...) is identical in both runs and cancels exactly, so
the quotient is the steady-state per-iteration cost — compared against
the contract's declared budget to a 1e-9 tolerance (the counts are exact
small rationals).

Expected values are derived from the contract plus the run parameters:

- matvec solvers: the declared budget verbatim;
- Chebyshev: ``allreduces_per_check / CHECK_INTERVAL`` reductions and
  ``halo_exchanges_per_iter / halo_depth`` exchanges per step (the matrix
  powers kernel amortises one deep exchange over ``halo_depth`` steps);
- CPPCG: ``halo_exchanges_per_iter + ceil(inner_steps / halo_depth) *
  halo_exchanges_per_inner_step`` exchanges per outer iteration.
"""

from __future__ import annotations

import importlib
import math
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

#: Relative tolerance unreachable in float64 — the solve never converges,
#: so ``result.iterations`` equals the requested budget.
EPS_NEVER = 1e-300

#: Comparison tolerance for measured-vs-expected per-iteration counts
#: (both sides are exact small rationals; this only absorbs float division).
TOLERANCE = 1e-9


@dataclass
class VerifyReport:
    """Measured vs declared per-iteration communication for one solver."""

    name: str
    module: str
    iterations: int
    measured_allreduces: float
    measured_halos: float
    expected_allreduces: float
    expected_halos: float
    detail: str = ""

    @property
    def ok(self) -> bool:
        return (abs(self.measured_allreduces - self.expected_allreduces)
                <= TOLERANCE
                and abs(self.measured_halos - self.expected_halos)
                <= TOLERANCE)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "module": self.module,
            "iterations": self.iterations,
            "measured": {"allreduces_per_iter": self.measured_allreduces,
                         "halo_exchanges_per_iter": self.measured_halos},
            "expected": {"allreduces_per_iter": self.expected_allreduces,
                         "halo_exchanges_per_iter": self.expected_halos},
            "ok": self.ok,
            "detail": self.detail,
        }


@dataclass
class VerifySpec:
    """One solver configuration to measure."""

    name: str
    module: str           # dotted module whose COMM_CONTRACT applies
    iters: tuple[int, int]  # the two iteration budgets to difference
    options: Callable     # (max_iters) -> the SolverOptions to run
    expected: Callable    # (contract) -> (allreduces, halos) per iteration
    detail: str = ""
    #: The system solved, a key of :func:`build_system`.
    system: str = "crooked_pipe"
    #: The solver honours residual replacement: the sanitized verify pass
    #: switches it on to prove that replacement collectives (rerouted to
    #: REPLACEMENT_KIND) stay both contract-exact *and*
    #: sanitizer-transparent.
    replaceable: bool = False


def build_system(name: str, n: int) -> tuple:
    """``(grid, global face arrays, b)`` of the system a spec names: the
    ``n``^2 crooked pipe or the 12^3 crooked duct (its 3-D analogue)."""
    from repro.mesh import Grid2D, Grid3D
    from repro.physics import (crooked_duct_3d, crooked_pipe,
                               first_step_system)
    grid, problem = {"crooked_pipe": (Grid2D(n, n), crooked_pipe()),
                     "crooked_duct_12": (Grid3D(12, 12, 12),
                                         crooked_duct_3d())}[name]
    grid, *faces, bg = first_step_system(grid, problem)
    return grid, faces, bg


def _never_converging(**knobs) -> Callable:
    """A spec's ``options``: the budget is the only thing that varies."""
    from repro.solvers import SolverOptions
    return lambda max_iters: SolverOptions(eps=EPS_NEVER,
                                           max_iters=max_iters, **knobs)


def _gershgorin_lam_max(*faces) -> float:
    """Safe upper eigenvalue bound of ``A = I + D`` (row-sum bound).

    Overestimating ``lam_max`` keeps Chebyshev stable (just slower), which
    is what the verifier wants: a fixed number of non-converging steps.
    """
    return 1.0 + 4.0 * sum(float(k.max()) for k in faces)


def _per_iter(contract):
    return (contract["allreduces_per_iter"],
            contract["halo_exchanges_per_iter"])


def _cheby_expected(depth):
    from repro.solvers.chebyshev import CHECK_INTERVAL

    def expected(contract):
        ar = (contract["allreduces_per_iter"]
              + contract.get("allreduces_per_check", 0) / CHECK_INTERVAL)
        return ar, contract["halo_exchanges_per_iter"] / depth
    return expected


def _ppcg_expected(inner, depth):
    def expected(contract):
        halos = (contract["halo_exchanges_per_iter"]
                 + math.ceil(inner / depth)
                 * contract.get("halo_exchanges_per_inner_step", 0))
        return contract["allreduces_per_iter"], halos
    return expected


def default_specs() -> list[VerifySpec]:
    """The shipped solver configurations to verify."""
    cheby = dict(solver="chebyshev", eigen_warmup_iters=8)
    ppcg = dict(solver="ppcg", eigen_warmup_iters=8)
    return [
        VerifySpec(
            "cg", "repro.solvers.cg", iters=(4, 12),
            options=_never_converging(solver="cg"),
            expected=_per_iter, replaceable=True),
        VerifySpec(
            "cg_fused", "repro.solvers.cg_fused", iters=(4, 12),
            options=_never_converging(solver="cg_fused"),
            expected=_per_iter),
        VerifySpec(
            "jacobi", "repro.solvers.jacobi", iters=(5, 15),
            options=_never_converging(solver="jacobi"),
            expected=_per_iter),
        VerifySpec(
            "chebyshev", "repro.solvers.chebyshev", iters=(20, 60),
            options=_never_converging(**cheby),
            expected=_cheby_expected(depth=1),
            detail="check_interval=10"),
        VerifySpec(
            "chebyshev[depth=4]", "repro.solvers.chebyshev", iters=(20, 60),
            options=_never_converging(**cheby, halo_depth=4),
            expected=_cheby_expected(depth=4),
            detail="matrix powers, check_interval=10"),
        VerifySpec(
            "ppcg", "repro.solvers.ppcg", iters=(3, 9),
            options=_never_converging(**ppcg, ppcg_inner_steps=4),
            expected=_ppcg_expected(inner=4, depth=1),
            detail="inner_steps=4", replaceable=True),
        VerifySpec(
            "ppcg[depth=4]", "repro.solvers.ppcg", iters=(3, 9),
            options=_never_converging(**ppcg, ppcg_inner_steps=8,
                                      halo_depth=4),
            expected=_ppcg_expected(inner=8, depth=4),
            detail="matrix powers, inner_steps=8", replaceable=True),
        VerifySpec(
            "dcg", "repro.solvers.deflation", iters=(4, 12),
            options=_never_converging(solver="dcg",
                                      deflation_blocks=(2, 2)),
            expected=_per_iter),
        VerifySpec(
            "cg[3d]", "repro.solvers.cg", iters=(4, 12),
            options=_never_converging(solver="cg"),
            expected=_per_iter, detail="12^3 crooked duct",
            replaceable=True, system="crooked_duct_12"),
        VerifySpec(
            "ppcg[3d,depth=2]", "repro.solvers.ppcg", iters=(3, 9),
            options=_never_converging(**ppcg, ppcg_inner_steps=4,
                                      halo_depth=2),
            expected=_ppcg_expected(inner=4, depth=2),
            detail="12^3 crooked duct, matrix powers, inner_steps=4",
            replaceable=True, system="crooked_duct_12"),
    ]


def _measure(spec: VerifySpec, n: int,
             resilience: bool = False,
             integrity: bool = False,
             sanitize: bool = False) -> tuple[float, float, int]:
    """Per-iteration (allreduces, halos) for one spec, differencing two
    runs of the rank program; Chebyshev and CPPCG get Gershgorin bounds
    as the solve's ``setup`` (a fixed number of stable steps).

    With ``resilience=True`` the solve is routed through the canonical
    resilient stack (``InstrumentedComm(RetryingComm(FaultyComm(...)))``
    with a disabled :class:`~repro.resilience.faults.FaultPlan`) instead
    of a bare instrumented communicator — proving the retry/injection
    layers are contract-transparent when no faults fire.

    ``integrity=True`` additionally inserts the checksummed-envelope
    layer (:class:`~repro.resilience.integrity.ChecksumComm`) into the
    stack *and* runs the solve under a durably checkpointing
    :class:`~repro.resilience.guard.SolverGuard` (interval 5, shards in a
    throwaway directory) — proving that checksum framing, duplicate-lane
    reductions and checkpointing leave the first-attempt per-iteration
    communication budget untouched (recovery-path collectives are logged
    under :data:`~repro.utils.events.RECOVERY_KIND` and therefore do not
    pollute the measured counts).

    ``sanitize=True`` is the strongest configuration: it forces the full
    resilience + integrity stack on, wraps that stack outermost in
    :class:`~repro.comm.sanitize.SanitizerComm`, prefers the spec's
    residual-replacement variant of the run when one exists, and asserts
    p2p quiescence after each solve.  A contract mismatch here means the
    sanitizer is not transparent; a
    :class:`~repro.utils.errors.SanitizerError` means the solver's own
    communication pattern tripped a runtime check.
    """
    from dataclasses import replace

    from repro.solvers.driver import SolveSetup
    from repro.solvers.eigen import EigenBounds
    from repro.solvers.ranks import instrumented_stack, solve_on_ranks

    if sanitize:
        resilience = True
        integrity = True

    grid, faces, bg = build_system(spec.system, n)
    setup = SolveSetup(bounds=EigenBounds(1.0, _gershgorin_lam_max(*faces)))

    def stack(comm, recv_timeout):
        if resilience or integrity:
            from repro.resilience import FaultPlan, build_resilient_comm
            stk = build_resilient_comm(comm, FaultPlan.disabled(),
                                       integrity=integrity)
        else:
            stk = instrumented_stack(comm)
        if sanitize:
            from repro.comm import SanitizerComm
            stk.comm = SanitizerComm(stk.comm)
        return stk

    def one_run(max_iters: int) -> tuple[int, int, int]:
        options = spec.options(max_iters)
        if integrity:
            options = replace(options, guard_interval=5)
        if sanitize and spec.replaceable:
            options = replace(options, replace_interval=5)
        with (tempfile.TemporaryDirectory(prefix="repro-verify-")
              if integrity else nullcontext()) as shards:
            run = solve_on_ranks(grid, faces, bg, options, stack=stack,
                                 setup=setup, checkpoint_dir=shards)
        if sanitize:
            run.ranks[0].stack.comm.check_quiescent()
        return (run.events.count_kind("allreduce"),
                run.events.count_kind("halo_exchange"),
                run.result.iterations)

    ar1, halo1, it1 = one_run(spec.iters[0])
    ar2, halo2, it2 = one_run(spec.iters[1])
    d_iter = it2 - it1
    if d_iter <= 0:
        raise RuntimeError(
            f"verify[{spec.name}]: iteration counts did not increase "
            f"({it1} -> {it2}); cannot difference runs")
    return (ar2 - ar1) / d_iter, (halo2 - halo1) / d_iter, d_iter


def verify_contracts(n: int = 32,
                     specs: list[VerifySpec] | None = None,
                     names: list[str] | None = None,
                     resilience: bool = False,
                     integrity: bool = False,
                     sanitize: bool = False) -> list[VerifyReport]:
    """Measure every solver configuration against its ``COMM_CONTRACT``.

    ``resilience=True`` routes each measurement through the resilient
    communicator stack with fault injection disabled (see
    :func:`_measure`); any contract drift introduced by the wrappers
    shows up as an ordinary verify mismatch.  ``integrity=True`` extends
    the stack with checksummed envelopes and a durably checkpointing
    guard — the strongest transparency statement: integrity + durability
    machinery must not change the first-attempt communication budget.
    ``sanitize=True`` stacks the runtime SPMD sanitizer outermost over
    the full resilience + integrity stack (implying both), switches
    residual replacement on where the solver supports it, and checks p2p
    quiescence — the contract must still hold bit-for-bit under every
    watchdog and fingerprint check.
    """
    from repro.analysis.contracts import validate_contract

    specs = specs if specs is not None else default_specs()
    if names:
        known = {s.name for s in specs} | {s.name.split("[")[0] for s in specs}
        unknown = sorted(set(names) - known)
        if unknown:
            raise ValueError(
                f"unknown solver name(s) {unknown}; "
                f"known: {sorted(known)}")
        specs = [s for s in specs
                 if s.name in names or s.name.split("[")[0] in names]
    reports = []
    for spec in specs:
        module = importlib.import_module(spec.module)
        contract = getattr(module, "COMM_CONTRACT", None)
        if contract is None or validate_contract(contract):
            reports.append(VerifyReport(
                name=spec.name, module=spec.module, iterations=0,
                measured_allreduces=math.nan, measured_halos=math.nan,
                expected_allreduces=math.nan, expected_halos=math.nan,
                detail="missing or invalid COMM_CONTRACT"))
            continue
        measured_ar, measured_halo, d_iter = _measure(
            spec, n, resilience=resilience, integrity=integrity,
            sanitize=sanitize)
        expected_ar, expected_halo = spec.expected(contract)
        detail = spec.detail
        if sanitize:
            extra = "sanitized full stack"
            if spec.replaceable:
                extra += ", residual replacement on"
            detail = f"{detail}, {extra}" if detail else extra
        elif integrity:
            detail = (f"{detail}, checksummed+checkpointing stack" if detail
                      else "checksummed+checkpointing stack")
        elif resilience:
            detail = f"{detail}, resilient stack" if detail \
                else "resilient stack"
        reports.append(VerifyReport(
            name=spec.name, module=spec.module, iterations=d_iter,
            measured_allreduces=measured_ar, measured_halos=measured_halo,
            expected_allreduces=float(expected_ar),
            expected_halos=float(expected_halo),
            detail=detail))
    return reports
