"""Chaos campaigns: randomized fault storms against the composed stack.

PRs 2-6 built the individual resilience mechanisms — retry/backoff, guard
rollback, durable checkpoint/restart, ULFM-style rank recovery, checksummed
envelopes, residual replacement, the SPMD sanitizer — each proven by
hand-written single-mechanism tests.  Resilience mechanisms interact in
non-obvious ways, and only randomized *composition* finds the
cross-mechanism bugs.  This module is that campaign engine:

- :func:`random_fault_plan` generates seeded randomized :class:`FaultPlan`
  compositions — transient errors x payload corruption x drops/delays x
  crash windows, across ops/ranks/op-index windows and burst patterns;
- :func:`run_trial` runs one full solve (or multi-step simulation) under
  the complete stack and checks it against the **invariant oracle**:

  * *differential* — agreement with a cached fault-free golden run:
    bit-identical when the plan is transparent (only retried transient
    errors and virtual delays, no rollback/degradation), true-residual
    tolerance otherwise;
  * *accounting* — retried/recovered traffic must land in the rerouted
    event kinds (``RETRY_KIND``, ``RECOVERY_KIND``), so logical
    COMM_CONTRACT counts of a transparent trial equal the golden's;
  * *no-hang* — the watchdog: receive timeouts turn dead peers into
    clean aborts, the virtual clock is budgeted, and a wall-clock
    deadline catches everything else;
  * *durability* — recovery trials must leave validated (CRC-checked)
    durable checkpoint shards behind.

- :func:`run_campaign` runs a whole seeded campaign and aggregates a
  **recovery-SLO ledger** (per-fault-class recovery rates, extra
  iterations, retry counts, virtual-clock overhead) with enforced
  budgets; two runs with the same seed produce byte-identical ledgers
  (``CHAOS_<n>.json``, see :mod:`repro.harness.chaos_sweep`);
- :func:`shrink_plan` is a delta-debugging minimizer: given a failing
  trial it removes rules/crash windows until the smallest plan that
  still reproduces the oracle violation remains, and
  :func:`write_fixture` serializes it as a JSON regression fixture
  (``tests/fixtures/chaos/``) replayable with :func:`replay_fixture`;
- :func:`run_soak` is the long-haul runner: a multi-step simulation
  advanced in cycles, each cycle under a fresh fault storm, the process
  "killed" between cycles and resumed from its durable checkpoints —
  the final field must still be bit-identical to one uninterrupted
  fault-free run.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.comm.instrument import RETRY_KIND
from repro.utils.events import RECOVERY_KIND, REPLACEMENT_KIND, EventLog
from repro.mesh import Field, Grid2D
from repro.physics.problems import crooked_pipe
from repro.physics.simulation import run_simulation
from repro.physics.state import crooked_pipe_system
from repro.resilience.checkpoint import (SolverCheckpointStore,
                                         latest_checkpoint, read_manifest)
from repro.resilience.faults import (CORRUPTION_MODES, CrashWindow,
                                     FaultPlan, FaultRule)
from repro.resilience.recovery import run_recoverable
from repro.resilience.runner import (DEFAULT_RECV_TIMEOUT_S,
                                     build_resilient_comm, run_resilient)
from repro.solvers import SolverOptions
from repro.solvers.options import options_from_dict, options_to_dict
from repro.solvers.ranks import serial_operator
from repro.utils.errors import (CommunicationError, ConfigurationError,
                                ConvergenceError)

#: Fault classes the ledger buckets trials under.  A trial belongs to the
#: class of every hazard its plan composes (plus ``"none"`` for fault-free
#: control trials), so cross-class interactions are visible in each bucket.
FAULT_CLASSES = ("none", "transient", "corruption", "latency", "crash")

#: Oracle slack on the true relative residual of a converged faulty solve:
#: recurrence-vs-true drift under rollbacks/splices is bounded well inside
#: two orders of magnitude of the requested tolerance.
ORACLE_RESIDUAL_SLACK = 100.0

#: Virtual-clock ceiling per trial (injected delays + backoff sleeps); a
#: trial charging more latency than this is runaway retrying, not recovery.
VIRTUAL_TIME_BUDGET_S = 120.0

#: Wall-clock deadline per trial — the last-resort no-hang watchdog.
WALL_TIME_BUDGET_S = 60.0

#: Fixture schema tag.
FIXTURE_SCHEMA = "repro.chaos_fixture/v1"

#: Ledger schema tag.
LEDGER_SCHEMA = "repro.chaos/v1"

#: Default recovery-SLO budgets enforced on the campaign ledger, keyed by
#: fault class.  ``min_recovery_rate`` is the fraction of the class's
#: trials that must end converged; ``max_mean_extra_iterations`` bounds the
#: mean iteration overhead of its converged trials over the golden run;
#: ``max_virtual_time_s`` bounds the total injected latency absorbed.
DEFAULT_BUDGETS = {
    "none": {"min_recovery_rate": 1.0},
    "transient": {"min_recovery_rate": 0.98,
                  "max_mean_extra_iterations": 40.0,
                  "max_virtual_time_s": 60.0},
    "corruption": {"min_recovery_rate": 0.85,
                   "max_mean_extra_iterations": 80.0},
    "latency": {"min_recovery_rate": 0.55,
                "max_virtual_time_s": 60.0},
    "crash": {"min_recovery_rate": 0.90},
}

#: The four protected solver configurations the default campaign storms.
#: Every config runs the full composed defence: guard rollback, graceful
#: degradation where the solver supports it, and (for the CG family)
#: van der Vorst-Ye residual replacement so a corrupted convergence-check
#: reduction cannot exit falsely.
CAMPAIGN_SOLVERS = (
    ("cg", SolverOptions(solver="cg", eps=1e-8, max_iters=500,
                         guard_interval=5, replace_interval=10)),
    ("ppcg", SolverOptions(solver="ppcg", eps=1e-8, max_iters=200,
                           ppcg_inner_steps=4, eigen_warmup_iters=8,
                           guard_interval=5, degrade=True,
                           replace_interval=10)),
    ("cppcg[depth=4]", SolverOptions(solver="ppcg", eps=1e-8, max_iters=200,
                                     ppcg_inner_steps=8, halo_depth=4,
                                     eigen_warmup_iters=8,
                                     guard_interval=5, degrade=True,
                                     replace_interval=10)),
    ("chebyshev", SolverOptions(solver="chebyshev", eps=1e-8, max_iters=500,
                                eigen_warmup_iters=8,
                                guard_interval=5, degrade=True)),
)

_MODE_CLASS = {
    "error": "transient",
    "drop": "latency",
    "delay": "latency",
    "corrupt_nan": "corruption",
    "corrupt_inf": "corruption",
    "corrupt_sign": "corruption",
    "corrupt_scale": "corruption",
}


def plan_classes(plan: FaultPlan) -> tuple[str, ...]:
    """The fault classes a plan composes, sorted (``("none",)`` if inert)."""
    if not plan.active():
        return ("none",)
    classes = {_MODE_CLASS[r.mode] for r in plan.rules}
    if plan.crashes:
        classes.add("crash")
    return tuple(sorted(classes))


def transparent(plan: FaultPlan) -> bool:
    """True when every hazard is invisible after retries.

    Transient errors are re-issued cleanly and delays only charge the
    virtual clock, so a solve under such a plan must reproduce the
    fault-free golden run *bit for bit* — the strongest differential
    oracle.  Corruption, drops and crashes may legitimately change the
    iteration path (rollbacks, degradation, resume), so they get the
    tolerance oracle instead.
    """
    if not plan.active():
        return True
    if plan.crashes:
        return False
    return all(r.mode in ("error", "delay") for r in plan.rules)


# -- trial specification -------------------------------------------------------


@dataclass(frozen=True)
class TrialSpec:
    """One chaos trial: what to run and what to inject.

    ``kind`` selects the driver: ``"solve"`` is one full linear solve via
    :func:`~repro.resilience.runner.run_resilient`; ``"recover"`` is a
    solve with a fatal crash window driven through
    :func:`~repro.resilience.recovery.run_recoverable` (durable
    checkpoints + shrink/respawn); ``"sim"`` is a ``steps``-step
    :class:`~repro.physics.simulation.Simulation` with step-level
    checkpoint/retry under the same comm stack.
    """

    index: int
    kind: str
    solver: str
    options: SolverOptions
    plan: FaultPlan
    n: int = 12
    size: int = 1
    integrity: bool = False
    max_attempts: int = 5
    steps: int = 0
    recv_timeout: float = DEFAULT_RECV_TIMEOUT_S

    def __post_init__(self):
        if self.kind not in ("solve", "recover", "sim"):
            raise ConfigurationError(
                f"unknown trial kind {self.kind!r}; expected solve, "
                "recover or sim")
        if self.kind == "sim" and self.steps < 1:
            raise ConfigurationError("sim trials need steps >= 1")


@dataclass
class TrialResult:
    """Outcome of one trial plus its oracle verdict.

    ``outcome`` is one of ``"converged"`` (solve finished and claims the
    tolerance), ``"failed"`` (an *honest* ConvergenceError — the stack
    admitted defeat, which the oracle allows and the SLO budgets punish)
    or ``"aborted"`` (the world died of a CommunicationError — clean only
    when the plan can explain it: drops or un-recovered fatal crashes).
    ``violations`` is empty iff the trial passed the invariant oracle.
    """

    spec: TrialSpec
    outcome: str
    iterations: int = 0
    golden_iterations: int = 0
    faults: int = 0
    retries: int = 0
    rollbacks: int = 0
    recoveries: int = 0
    degraded: bool = False
    virtual_time_s: float = 0.0
    violations: list = field(default_factory=list)

    @property
    def classes(self) -> tuple[str, ...]:
        return plan_classes(self.spec.plan)

    @property
    def extra_iterations(self) -> int:
        return self.iterations - self.golden_iterations

    def row(self) -> dict:
        """JSON-ready ledger row (deterministic for a pinned seed)."""
        return {
            "trial": self.spec.index,
            "kind": self.spec.kind,
            "solver": self.spec.solver,
            "size": self.spec.size,
            "classes": list(self.classes),
            "outcome": self.outcome,
            "iterations": self.iterations,
            "golden_iterations": self.golden_iterations,
            "faults": self.faults,
            "retries": self.retries,
            "rollbacks": self.rollbacks,
            "recoveries": self.recoveries,
            "degraded": self.degraded,
            "virtual_time_s": round(self.virtual_time_s, 9),
            "violations": list(self.violations),
        }


# -- randomized plan generation ------------------------------------------------

def _rule_probability(rng: np.random.Generator) -> float:
    """Log-uniform firing probability in [0.005, 0.08]."""
    lo, hi = np.log10(0.005), np.log10(0.08)
    return round(float(10.0 ** rng.uniform(lo, hi)), 6)


def _maybe_window(rng: np.random.Generator) -> tuple | None:
    """A burst window over per-rank op indices, half of the time."""
    if rng.random() < 0.5:
        start = int(rng.integers(0, 60))
        return (start, start + int(rng.integers(4, 30)))
    return None


def random_fault_plan(seed: int,
                      trial: int,
                      *,
                      size: int = 1,
                      solver: str = "cg",
                      max_attempts: int = 5,
                      allow_drops: bool = False,
                      fatal_crash: bool = False) -> FaultPlan:
    """One randomized fault storm, fully determined by ``(seed, trial)``.

    Composes 1-3 probabilistic rules (transient errors, delays, payload
    corruption — restricted to collectives in serial worlds, where no
    point-to-point traffic exists) with optional burst windows, an
    optional survivable crash window in multi-rank worlds, a single
    deterministic drop when ``allow_drops`` (the hard fault whose only
    legal outcome is a clean timeout abort or a degraded recovery), and a
    fatal crash window (``length > max_attempts``) when ``fatal_crash``
    (for recovery trials).

    Chebyshev has no residual-replacement defence, so its corruption menu
    excludes the magnitude-scaling mode that could fake its convergence
    check; the CG family runs with ``replace_interval`` on, which forces a
    true-residual check on every convergence claim.
    """
    rng = np.random.default_rng((seed, trial))
    p2p = size > 1
    ops_pool = ("send", "recv", "allreduce") if p2p else ("allreduce",)
    corrupt_modes = ["corrupt_nan", "corrupt_inf", "corrupt_sign"]
    if not solver.startswith("chebyshev"):
        corrupt_modes.append("corrupt_scale")
    rules: list[FaultRule] = []
    for _ in range(int(rng.integers(1, 4))):
        kind = rng.random()
        if kind < 0.5:
            rules.append(FaultRule(
                mode="error", probability=_rule_probability(rng),
                ops=ops_pool, window=_maybe_window(rng)))
        elif kind < 0.75:
            rules.append(FaultRule(
                mode="delay", probability=_rule_probability(rng),
                ops=ops_pool, delay_s=round(float(rng.uniform(1e-4, 5e-3)), 9),
                window=_maybe_window(rng)))
        else:
            mode = corrupt_modes[int(rng.integers(len(corrupt_modes)))]
            rules.append(FaultRule(
                mode=mode, probability=_rule_probability(rng),
                ops=("allreduce",),
                scale=100.0,
                max_faults=int(rng.integers(1, 4)),
                window=_maybe_window(rng)))
    if allow_drops and p2p:
        start = int(rng.integers(10, 40))
        rules.append(FaultRule(
            mode="drop", probability=1.0, ops=("send",), max_faults=1,
            window=(start, start + 20)))
    crashes: tuple = ()
    if fatal_crash and p2p:
        crashes = (CrashWindow(
            rank=int(rng.integers(1, size)),
            start=int(rng.integers(30, 60)),
            length=max_attempts + int(rng.integers(3, 8))),)
    elif p2p and rng.random() < 0.4:
        crashes = (CrashWindow(
            rank=int(rng.integers(1, size)),
            start=int(rng.integers(10, 80)),
            length=int(rng.integers(1, max_attempts))),)
    return FaultPlan(seed=int(rng.integers(1 << 31)),
                     rules=tuple(rules), crashes=crashes)


# -- golden runs and the differential oracle -----------------------------------


class GoldenCache:
    """Cached fault-free reference runs plus the true-residual checker.

    Golden runs depend only on the (kind, options, n, size, steps)
    configuration, never on the fault plan, so a 200-trial campaign pays
    for one golden per solver config instead of one per trial.
    """

    def __init__(self):
        self._solves: dict = {}
        self._sims: dict = {}
        self._systems: dict = {}

    def solve(self, options: SolverOptions, n: int, size: int):
        key = (options, n, size)
        if key not in self._solves:
            self._solves[key] = run_resilient(
                options, FaultPlan.disabled(), n=n, size=size)
        return self._solves[key]

    def sim(self, options: SolverOptions, n: int, size: int, steps: int):
        key = (options, n, size, steps)
        if key not in self._sims:
            self._sims[key] = _run_sim(options, FaultPlan.disabled(),
                                       n=n, size=size, steps=steps)
        return self._sims[key]

    def _system(self, n: int):
        if n not in self._systems:
            grid, kxg, kyg, bg = crooked_pipe_system(n)
            op = serial_operator(grid, kxg, kyg)
            b = Field.from_global(op.tile, 1, bg)
            self._systems[n] = (op, b, float(np.linalg.norm(bg)))
        return self._systems[n]

    def true_relative_residual(self, x: np.ndarray, n: int) -> float:
        """``||b - A x|| / ||b||`` recomputed from the global system.

        This is the oracle's own arithmetic — independent of anything the
        (possibly corrupted) solve believed about its residual.
        """
        op, b, bnorm = self._system(n)
        xf = op.new_field()
        xf.interior[...] = x
        out = op.new_field()
        op.residual(b, xf, out)
        return float(np.linalg.norm(out.interior)) / bnorm


# -- trial drivers -------------------------------------------------------------


@dataclass
class _SimRun:
    """What one (possibly faulty) simulation run hands the oracle."""

    temperature: np.ndarray
    iterations: int
    faults: int = 0
    retries: int = 0
    rollbacks: int = 0
    virtual_time_s: float = 0.0
    retry_events: int = 0


def _run_sim(options: SolverOptions, plan: FaultPlan, *,
             n: int, size: int, steps: int,
             max_attempts: int = 5,
             recv_timeout: float = DEFAULT_RECV_TIMEOUT_S) -> _SimRun:
    """A ``steps``-step crooked-pipe simulation under the resilient stack.

    Step-level checkpoint/retry is armed (every step, 3 retries), so a
    step killed by an exhausted comm retry budget rolls the whole world
    back coherently instead of aborting the run.
    """
    report = run_simulation(
        Grid2D(n, n), crooked_pipe(), options, n_steps=steps, nranks=size,
        checkpoint_interval=1, max_step_retries=3,
        stack=lambda comm, timeout: build_resilient_comm(
            comm, plan, max_attempts=max_attempts,
            recv_timeout=timeout or recv_timeout))
    stacks = report.stacks
    # Iteration counts are globally coherent (the convergence check is an
    # allreduce), so rank 0's stats speak for the world.
    return _SimRun(temperature=report.temperature,
                   iterations=report.total_iterations,
                   faults=sum(len(s.faulty.log) for s in stacks),
                   retries=sum(s.retrying.retries for s in stacks),
                   virtual_time_s=max(s.clock.now for s in stacks),
                   retry_events=sum(_retry_events(s.events) for s in stacks))


def _abort_expected(spec: TrialSpec) -> bool:
    """Can the plan explain a world abort (clean, watchdog-detected)?

    Drops starve a receiver (only its timeout can fail it) and a fatal
    crash window outside a recovery trial kills the world by design.
    Anything else aborting is an oracle violation.
    """
    plan = spec.plan
    if any(r.mode == "drop" for r in plan.rules):
        return True
    fatal = any(c.length >= spec.max_attempts for c in plan.crashes)
    return fatal and spec.kind != "recover"


def run_trial(spec: TrialSpec,
              golden: GoldenCache,
              *,
              workdir=None) -> TrialResult:
    """Run one trial under the composed stack and apply the full oracle.

    ``workdir`` backs the durable checkpoints of ``"recover"`` trials
    (a throw-away directory; its contents never enter the ledger).
    """
    if spec.kind == "recover" and workdir is None:
        raise ConfigurationError(
            "recover trials need a workdir for durable checkpoints")
    t0 = time.monotonic()
    res = TrialResult(spec=spec, outcome="converged")
    try:
        if spec.kind == "sim":
            gold = golden.sim(spec.options, spec.n, spec.size, spec.steps)
            run = _run_sim(spec.options, spec.plan, n=spec.n,
                           size=spec.size, steps=spec.steps,
                           max_attempts=spec.max_attempts,
                           recv_timeout=spec.recv_timeout)
            res.golden_iterations = gold.iterations
            res.iterations = run.iterations
            res.faults, res.retries = run.faults, run.retries
            res.virtual_time_s = run.virtual_time_s
            _check_sim(res, run, gold)
        else:
            gold = golden.solve(spec.options, spec.n, spec.size)
            res.golden_iterations = gold.iterations
            if spec.kind == "recover":
                report = run_recoverable(
                    spec.options, spec.plan, n=spec.n, size=spec.size,
                    checkpoint_dir=workdir,
                    max_attempts=spec.max_attempts,
                    integrity=spec.integrity,
                    recv_timeout=spec.recv_timeout)
            else:
                report = run_resilient(
                    spec.options, spec.plan, n=spec.n, size=spec.size,
                    max_attempts=spec.max_attempts,
                    integrity=spec.integrity,
                    recv_timeout=spec.recv_timeout)
            _fill(res, report)
            _check_solve(res, report, gold, golden)
            if spec.kind == "recover":
                _check_durability(res, workdir, spec.size)
    except ConvergenceError:
        # The stack gave up *honestly*: detected, classified, reported.
        # Not an invariant violation — the SLO budgets account for it.
        res.outcome = "failed"
    except CommunicationError:
        res.outcome = "aborted"
        if not _abort_expected(spec):
            res.violations.append("no-hang:unexplained-world-abort")
    except Exception as exc:  # the oracle must classify *anything*
        res.outcome = "error"
        res.violations.append(
            f"oracle:unexpected-{type(exc).__name__}")
    if time.monotonic() - t0 > WALL_TIME_BUDGET_S:
        res.violations.append("no-hang:wall-clock-budget-exceeded")
    return res


def _fill(res: TrialResult, report) -> None:
    res.iterations = report.iterations
    res.faults = len(report.fault_events)
    res.retries = report.retries
    res.rollbacks = report.rollbacks
    res.recoveries = report.recoveries
    res.degraded = report.degraded
    res.virtual_time_s = report.virtual_time_s
    if not report.converged:
        res.outcome = "failed"


def _retry_events(events: EventLog) -> int:
    """Logical retry events, wherever the scopes rerouted them.

    A transient fault can fire during a residual-replacement reduction or
    inside recovery traffic; the retry is then recorded under
    ``(REPLACEMENT_KIND, RETRY_KIND)`` / ``(RECOVERY_KIND, RETRY_KIND)``
    instead of ``(RETRY_KIND, op)`` — the exact cross-mechanism
    interaction this accounting check exists to pin down.
    """
    return (events.count_kind(RETRY_KIND)
            + events.count(RECOVERY_KIND, RETRY_KIND)
            + events.count(REPLACEMENT_KIND, RETRY_KIND))


def _check_solve(res: TrialResult, report, gold, golden: GoldenCache) -> None:
    """Differential + accounting + virtual-clock checks for solve trials."""
    spec = res.spec
    if report.events is not None \
            and _retry_events(report.events) != report.retries:
        res.violations.append(
            f"accounting:retry-events {_retry_events(report.events)}"
            f" != retries {report.retries}")
    if res.virtual_time_s > VIRTUAL_TIME_BUDGET_S:
        res.violations.append(
            f"no-hang:virtual-clock {res.virtual_time_s:.3f}s over budget")
    if not report.converged:
        return
    rel = golden.true_relative_residual(report.x, spec.n)
    tol = spec.options.eps * ORACLE_RESIDUAL_SLACK
    if not rel <= tol:
        res.violations.append(
            f"differential:true-residual {rel:.3e} > {tol:.3e}")
    if transparent(spec.plan) and report.rollbacks == 0 \
            and not report.degraded and report.recoveries == 0:
        # Recovery claims full transparency: hold it to bit-identity.
        if report.iterations != gold.iterations:
            res.violations.append(
                f"differential:iterations {report.iterations} != golden "
                f"{gold.iterations} under a transparent plan")
        if report.x is not None and gold.x is not None \
                and not np.array_equal(report.x, gold.x):
            res.violations.append("differential:bit-drift under a "
                                  "transparent plan")
        if report.events is not None and gold.events is not None:
            for kind in ("allreduce", "halo_exchange"):
                a = report.events.count_kind(kind)
                g = gold.events.count_kind(kind)
                if a != g:
                    res.violations.append(
                        f"accounting:{kind} count {a} != golden {g} "
                        "(retries leaked into logical counts)")


def _check_sim(res: TrialResult, run: _SimRun, gold: _SimRun) -> None:
    """Sim trials inject only transparent hazards: demand bit-identity."""
    if run.retry_events != run.retries:
        res.violations.append(
            f"accounting:retry-events {run.retry_events} != retries "
            f"{run.retries}")
    if res.virtual_time_s > VIRTUAL_TIME_BUDGET_S:
        res.violations.append(
            f"no-hang:virtual-clock {res.virtual_time_s:.3f}s over budget")
    if run.temperature is None or gold.temperature is None:
        res.violations.append("differential:missing temperature field")
        return
    if not np.array_equal(run.temperature, gold.temperature):
        res.violations.append("differential:simulation temperature drifted "
                              "under a transparent storm")


def _check_durability(res: TrialResult, workdir, size: int) -> None:
    """Recovery must leave loadable, CRC-valid durable shards behind."""
    from repro.utils.errors import CheckpointError
    for rank in range(size):
        store = SolverCheckpointStore(Path(workdir), rank)
        try:
            loaded = store.load()
        except CheckpointError as exc:
            res.violations.append(
                f"durability:rank {rank} shard invalid ({exc})")
            continue
        if loaded is None:
            res.violations.append(
                f"durability:rank {rank} left no durable shard")


# -- campaign ------------------------------------------------------------------


def campaign_specs(seed: int,
                   trials: int,
                   *,
                   n: int = 12,
                   solvers=CAMPAIGN_SOLVERS,
                   sim_steps: int = 3,
                   max_attempts: int = 5) -> list[TrialSpec]:
    """The deterministic trial schedule of one campaign.

    Round-robins the solver configs and interleaves the trial kinds on
    fixed residues so any prefix of the schedule covers every kind:
    serial solves (the bulk), 2-rank solves (p2p hazards + survivable
    crashes), drop trials (hard faults, clean aborts allowed), fatal
    crash + ULFM recovery trials, multi-step simulations, and fault-free
    controls that anchor the differential oracle.

    Defence selection mirrors the design-space argument: the CG family
    carries residual replacement (``replace_interval``), which revalidates
    every convergence claim against a true residual, so payload corruption
    cannot fake convergence; Chebyshev has no such numerical defence — its
    corruption trials arm the :class:`ChecksumComm` integrity layer
    instead, whose duplicate-lane reductions turn the corruption into a
    retryable detection.  A deterministic slice of replacement-protected
    trials also runs with integrity on, exercising the checksum +
    replacement composition.
    """

    def _integrity(i: int, options: SolverOptions, plan: FaultPlan) -> bool:
        corrupting = any(r.mode in CORRUPTION_MODES for r in plan.rules)
        return corrupting and (options.replace_interval == 0 or i % 5 == 2)

    specs: list[TrialSpec] = []
    for i in range(trials):
        name, options = solvers[i % len(solvers)]
        if i % 25 == 24:
            specs.append(TrialSpec(
                index=i, kind="solve", solver=name, options=options,
                plan=FaultPlan.disabled(), n=n,
                max_attempts=max_attempts))
            continue
        if i % 20 == 7:
            plan = random_fault_plan(seed, i, size=2, solver=name,
                                     max_attempts=max_attempts,
                                     fatal_crash=True)
            specs.append(TrialSpec(
                index=i, kind="recover", solver=name, options=options,
                plan=plan, n=n, size=2, max_attempts=max_attempts,
                integrity=_integrity(i, options, plan)))
            continue
        if i % 20 == 17:
            plan = random_fault_plan(seed, i, size=2, solver=name,
                                     max_attempts=max_attempts,
                                     allow_drops=True)
            specs.append(TrialSpec(
                index=i, kind="solve", solver=name, options=options,
                plan=plan, n=n, size=2, max_attempts=max_attempts,
                recv_timeout=0.5, integrity=_integrity(i, options, plan)))
            continue
        if i % 10 == 6:
            plan = _transparent_only(random_fault_plan(
                seed, i, size=1, solver=name, max_attempts=max_attempts))
            specs.append(TrialSpec(
                index=i, kind="sim", solver=name, options=options,
                plan=plan, n=n, steps=sim_steps,
                max_attempts=max_attempts))
            continue
        size = 2 if i % 10 == 3 else 1
        plan = random_fault_plan(seed, i, size=size, solver=name,
                                 max_attempts=max_attempts)
        specs.append(TrialSpec(
            index=i, kind="solve", solver=name, options=options,
            plan=plan, n=n, size=size, max_attempts=max_attempts,
            integrity=_integrity(i, options, plan)))
    return specs


def _transparent_only(plan: FaultPlan) -> FaultPlan:
    """Strip a random plan down to its transparent (error/delay) rules."""
    rules = tuple(r for r in plan.rules if r.mode in ("error", "delay"))
    if not rules:
        rules = (FaultRule(mode="error", probability=0.02,
                           ops=("allreduce",)),)
    return FaultPlan(seed=plan.seed, rules=rules)


@dataclass
class ChaosCampaignResult:
    """All trial results of one campaign plus the enforced SLO ledger."""

    seed: int
    n: int
    solvers: tuple[str, ...]
    budgets: dict
    results: list = field(default_factory=list)

    @property
    def oracle_violations(self) -> list:
        """Flat ``(trial_index, violation)`` list across all trials."""
        return [(r.spec.index, v) for r in self.results for v in r.violations]

    def class_stats(self) -> dict:
        """Per-fault-class SLO aggregates (the heart of the ledger)."""
        stats: dict = {}
        for cls in FAULT_CLASSES:
            rows = [r for r in self.results if cls in r.classes]
            if not rows:
                continue
            converged = [r for r in rows if r.outcome == "converged"]
            extra = [r.extra_iterations for r in converged]
            # Drop trials (and un-recovered fatal crashes) abort *by
            # design* — the watchdog turning a starved receiver into a
            # clean abort is the mechanism working, not failing — so
            # clean expected aborts leave the recovery-rate denominator.
            expected_aborts = sum(
                r.outcome == "aborted" and not r.violations for r in rows)
            recoverable = len(rows) - expected_aborts
            stats[cls] = {
                "trials": len(rows),
                "converged": len(converged),
                "failed": sum(r.outcome == "failed" for r in rows),
                "aborted": sum(r.outcome == "aborted" for r in rows),
                "expected_aborts": expected_aborts,
                "recovery_rate": round(
                    len(converged) / recoverable if recoverable else 1.0, 6),
                "mean_extra_iterations": round(
                    float(np.mean(extra)) if extra else 0.0, 6),
                "retries": sum(r.retries for r in rows),
                "rollbacks": sum(r.rollbacks for r in rows),
                "recoveries": sum(r.recoveries for r in rows),
                "virtual_time_s": round(
                    sum(r.virtual_time_s for r in rows), 9),
            }
        return stats

    def budget_violations(self) -> list[str]:
        """Every way the measured SLOs miss the enforced budgets."""
        out: list[str] = []
        stats = self.class_stats()
        for cls, budget in sorted(self.budgets.items()):
            if cls not in stats:
                continue
            s = stats[cls]
            rate = budget.get("min_recovery_rate")
            if rate is not None and s["recovery_rate"] < rate:
                out.append(f"{cls}: recovery rate {s['recovery_rate']:.3f} "
                           f"< budget {rate:.3f}")
            cap = budget.get("max_mean_extra_iterations")
            if cap is not None and s["mean_extra_iterations"] > cap:
                out.append(f"{cls}: mean extra iterations "
                           f"{s['mean_extra_iterations']:.1f} > budget "
                           f"{cap:.1f}")
            vcap = budget.get("max_virtual_time_s")
            if vcap is not None and s["virtual_time_s"] > vcap:
                out.append(f"{cls}: virtual time "
                           f"{s['virtual_time_s']:.3f}s > budget "
                           f"{vcap:.1f}s")
        return out

    @property
    def passed(self) -> bool:
        return not self.oracle_violations and not self.budget_violations()

    @property
    def exit_code(self) -> int:
        return 0 if self.passed else 1

    def as_dict(self) -> dict:
        """The recovery-SLO ledger (schema ``repro.chaos/v1``).

        Byte-stable for a pinned seed: every number is derived from
        seeded draws and virtual clocks, never wall time, so two runs of
        the same campaign serialize identically (the acceptance test
        compares the JSON bytes).
        """
        return {
            "schema": LEDGER_SCHEMA,
            "seed": self.seed,
            "n": self.n,
            "trials": len(self.results),
            "solvers": list(self.solvers),
            "passed": self.passed,
            "oracle_violations": [
                {"trial": i, "violation": v}
                for i, v in self.oracle_violations],
            "budget_violations": self.budget_violations(),
            "budgets": self.budgets,
            "classes": self.class_stats(),
            "trial_rows": [r.row() for r in self.results],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


def run_campaign(seed: int = 20170905,
                 trials: int = 200,
                 *,
                 n: int = 12,
                 solvers=CAMPAIGN_SOLVERS,
                 budgets: dict | None = None,
                 sim_steps: int = 3,
                 max_attempts: int = 5,
                 fixtures_dir=None,
                 workdir=None) -> ChaosCampaignResult:
    """Run a full seeded chaos campaign and aggregate the SLO ledger.

    ``fixtures_dir``: when a trial fails the oracle, its plan is shrunk
    with :func:`shrink_plan` and the minimized reproduction is written
    there as a JSON fixture (the campaign still reports the failure).
    ``workdir``: directory for recovery trials' throw-away durable
    checkpoints (a temporary directory when omitted).
    """
    import tempfile

    golden = GoldenCache()
    out = ChaosCampaignResult(
        seed=seed, n=n, solvers=tuple(name for name, _ in solvers),
        budgets=budgets if budgets is not None else DEFAULT_BUDGETS)
    specs = campaign_specs(seed, trials, n=n, solvers=solvers,
                           sim_steps=sim_steps, max_attempts=max_attempts)
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(workdir) if workdir is not None else Path(tmp)
        for spec in specs:
            trial_dir = base / f"trial-{spec.index:06d}"
            result = run_trial(spec, golden, workdir=trial_dir)
            out.results.append(result)
            if result.violations and fixtures_dir is not None:
                minimize_and_write_fixture(spec, golden,
                                           Path(fixtures_dir),
                                           workdir=trial_dir)
    return out


# -- delta-debugging shrinker and fixtures -------------------------------------


def shrink_plan(plan: FaultPlan, failing, *, max_runs: int = 256) -> FaultPlan:
    """ddmin over the plan's rules + crash windows.

    ``failing(plan) -> bool`` must be deterministic and True for the input
    plan; the returned plan is 1-minimal under it (removing any single
    remaining rule or crash window makes the failure disappear), reached
    in at most ``max_runs`` predicate evaluations.
    """
    atoms: list = [("rule", r) for r in plan.rules] \
        + [("crash", c) for c in plan.crashes]

    def build(selected) -> FaultPlan:
        return FaultPlan(
            seed=plan.seed,
            rules=tuple(obj for k, obj in selected if k == "rule"),
            crashes=tuple(obj for k, obj in selected if k == "crash"),
            enabled=True)

    runs = 0

    def check(selected) -> bool:
        nonlocal runs
        runs += 1
        if runs > max_runs:
            raise ConfigurationError(
                f"shrinker exceeded its run budget ({max_runs})")
        return bool(failing(build(selected)))

    if not check(atoms):
        raise ConfigurationError(
            "shrink_plan needs a failing plan to start from")
    granularity = 2
    while len(atoms) >= 2:
        chunk = max(1, len(atoms) // granularity)
        reduced = False
        for start in range(0, len(atoms), chunk):
            candidate = atoms[:start] + atoms[start + chunk:]
            if candidate and check(candidate):
                atoms = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                break
        if not reduced:
            if granularity >= len(atoms):
                break
            granularity = min(len(atoms), granularity * 2)
    return build(atoms)


def spec_to_dict(spec: TrialSpec) -> dict:
    return {
        "index": spec.index,
        "kind": spec.kind,
        "solver": spec.solver,
        "options": options_to_dict(spec.options),
        "plan": spec.plan.to_dict(),
        "n": spec.n,
        "size": spec.size,
        "integrity": spec.integrity,
        "max_attempts": spec.max_attempts,
        "steps": spec.steps,
        "recv_timeout": spec.recv_timeout,
    }


def spec_from_dict(data: dict) -> TrialSpec:
    return TrialSpec(
        index=data["index"],
        kind=data["kind"],
        solver=data["solver"],
        options=options_from_dict(data["options"]),
        plan=FaultPlan.from_dict(data["plan"]),
        n=data["n"],
        size=data.get("size", 1),
        integrity=data.get("integrity", False),
        max_attempts=data.get("max_attempts", 5),
        steps=data.get("steps", 0),
        recv_timeout=data.get("recv_timeout", DEFAULT_RECV_TIMEOUT_S),
    )


def write_fixture(spec: TrialSpec, violations: list, path) -> Path:
    """Serialize a (minimized) failing trial as a regression fixture."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": FIXTURE_SCHEMA,
        "spec": spec_to_dict(spec),
        "violations": list(violations),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def load_fixture(path) -> TrialSpec:
    """Rebuild the trial spec of a fixture written by :func:`write_fixture`."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if data.get("schema") != FIXTURE_SCHEMA:
        raise ConfigurationError(
            f"{path}: unknown fixture schema {data.get('schema')!r}")
    return spec_from_dict(data["spec"])


def replay_fixture(path, *, workdir=None) -> TrialResult:
    """Re-run a fixture's trial; its violations should reproduce."""
    import tempfile

    spec = load_fixture(path)
    golden = GoldenCache()
    if workdir is not None:
        return run_trial(spec, golden, workdir=workdir)
    with tempfile.TemporaryDirectory() as tmp:
        return run_trial(spec, golden, workdir=Path(tmp))


def minimize_and_write_fixture(spec: TrialSpec,
                               golden: GoldenCache,
                               fixtures_dir: Path,
                               *,
                               workdir=None,
                               max_runs: int = 256) -> Path:
    """Shrink a failing trial's plan and persist the minimal reproduction.

    The predicate re-runs the trial with a candidate sub-plan and asks
    "does the oracle still object?" — so the minimized fixture is the
    smallest fault composition that still breaks the invariant, which is
    exactly what a regression test wants to replay.
    """
    import dataclasses

    def failing(candidate: FaultPlan) -> bool:
        trial = dataclasses.replace(spec, plan=candidate)
        return bool(run_trial(trial, golden, workdir=workdir).violations)

    minimal = shrink_plan(spec.plan, failing, max_runs=max_runs)
    final = dataclasses.replace(spec, plan=minimal)
    result = run_trial(final, golden, workdir=workdir)
    name = f"chaos-seed{spec.plan.seed}-trial{spec.index:04d}.json"
    return write_fixture(final, result.violations, fixtures_dir / name)


def known_bad_spec(seed: int = 99) -> TrialSpec:
    """The seeded known-bad mutation the shrinker acceptance test uses.

    Protections off (no guard, no residual replacement, integrity
    disabled) while a storm of transient errors, delays and a
    magnitude-crushing corruption of the convergence-check reduction
    rages: the scaled-down ``r.r`` fakes convergence, the solve exits
    early, and only the oracle's independently recomputed true residual
    notices.  The shrinker must strip the decoy rules and leave <= 2.
    """
    options = SolverOptions(solver="cg", eps=1e-8, max_iters=500)
    plan = FaultPlan(seed=seed, rules=(
        FaultRule(mode="error", probability=0.01, ops=("allreduce",)),
        FaultRule(mode="delay", probability=0.01, ops=("allreduce",),
                  delay_s=1e-3),
        FaultRule(mode="corrupt_scale", probability=1.0,
                  ops=("allreduce",), scale=1e-12, window=(20, 1 << 30)),
    ))
    return TrialSpec(index=0, kind="solve", solver="cg[unprotected]",
                     options=options, plan=plan, n=12)


# -- soak runner ---------------------------------------------------------------


@dataclass
class SoakCycle:
    """One storm-then-kill cycle of a soak run."""

    cycle: int
    steps: int
    restored_step: int       #: checkpoint step resumed from (-1 = fresh)
    faults: int
    retries: int
    virtual_time_s: float

    def row(self) -> dict:
        return {
            "cycle": self.cycle,
            "steps": self.steps,
            "restored_step": self.restored_step,
            "faults": self.faults,
            "retries": self.retries,
            "virtual_time_s": round(self.virtual_time_s, 9),
        }


@dataclass
class SoakReport:
    """Outcome of a :func:`run_soak` run (JSON-ready via :meth:`as_dict`)."""

    seed: int
    n: int
    nranks: int
    cycles: list = field(default_factory=list)
    bit_identical: bool = False
    violations: list = field(default_factory=list)
    final_mean_temperature: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def exit_code(self) -> int:
        return 0 if self.passed else 1

    def as_dict(self) -> dict:
        return {
            "schema": "repro.chaos_soak/v1",
            "seed": self.seed,
            "n": self.n,
            "nranks": self.nranks,
            "passed": self.passed,
            "bit_identical": self.bit_identical,
            "violations": list(self.violations),
            "final_mean_temperature": self.final_mean_temperature,
            "cycles": [c.row() for c in self.cycles],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


def storm_plan(seed: int, cycle: int, *, nranks: int) -> FaultPlan:
    """The (transparent) fault storm of one soak cycle.

    Bursty transient errors plus background delays: every hazard is
    retried or merely charged to the virtual clock, so the soak's
    bit-identity oracle stays exact across any number of storms.
    """
    rng = np.random.default_rng((seed, 0x50AB, cycle))
    ops = ("send", "recv", "allreduce") if nranks > 1 else ("allreduce",)
    start = int(rng.integers(0, 40))
    return FaultPlan(seed=int(rng.integers(1 << 31)), rules=(
        FaultRule(mode="error", probability=0.05, ops=ops,
                  window=(start, start + int(rng.integers(10, 40)))),
        FaultRule(mode="error", probability=0.01, ops=ops),
        FaultRule(mode="delay", probability=0.02, ops=ops, delay_s=1e-3),
    ))


def run_soak(*,
             seed: int = 11,
             cycles: int = 3,
             steps_per_cycle: int = 2,
             n: int = 16,
             nranks: int = 1,
             checkpoint_root,
             options: SolverOptions | None = None) -> SoakReport:
    """Soak the mini-app: periodic fault storms and kill/restart cycles.

    Each cycle relaunches the SPMD world (everything in memory is lost —
    the "kill"), restores from the newest durable checkpoint, and
    advances ``steps_per_cycle`` steps under a fresh seeded storm with
    durable checkpoints committed every step.  After all cycles the final
    temperature must be **bit-identical** to one uninterrupted fault-free
    run: the composed claim that checkpoint/restart and the retry stack
    are both exact.
    """
    opts = options if options is not None else SolverOptions(
        solver="cg", eps=1e-8, max_iters=500)
    grid = Grid2D(n, n)
    problem = crooked_pipe()
    total = cycles * steps_per_cycle
    root = Path(checkpoint_root)

    golden_temp = run_simulation(grid, problem, opts, n_steps=total,
                                 nranks=nranks).temperature

    report = SoakReport(seed=seed, n=n, nranks=nranks)
    for cycle in range(cycles):
        plan = storm_plan(seed, cycle, nranks=nranks)
        resume_dir = latest_checkpoint(root)
        restored = (-1 if resume_dir is None
                    else int(read_manifest(resume_dir)["step"]))
        run = run_simulation(
            grid, problem, opts, n_steps=steps_per_cycle, nranks=nranks,
            checkpoint_interval=1, max_step_retries=3, checkpoint_dir=root,
            restore_from=resume_dir, total_steps=total,
            stack=lambda comm, timeout, storm=plan: build_resilient_comm(
                comm, storm,
                recv_timeout=timeout or DEFAULT_RECV_TIMEOUT_S))
        temp = run.temperature
        report.cycles.append(SoakCycle(
            cycle=cycle,
            steps=steps_per_cycle,
            restored_step=restored,
            faults=sum(len(s.faulty.log) for s in run.stacks),
            retries=sum(s.retrying.retries for s in run.stacks),
            virtual_time_s=max(s.clock.now for s in run.stacks),
        ))
        report.final_mean_temperature = run.final_mean_temperature
        if cycle > 0 and restored != cycle * steps_per_cycle:
            report.violations.append(
                f"cycle {cycle}: resumed from step {restored}, expected "
                f"{cycle * steps_per_cycle}")

    report.bit_identical = bool(np.array_equal(temp, golden_temp))
    if not report.bit_identical:
        report.violations.append(
            "final temperature drifted from the uninterrupted fault-free "
            "run")
    if not any(c.faults for c in report.cycles):
        report.violations.append("no storm fault ever fired (vacuous soak)")
    return report
