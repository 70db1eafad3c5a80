"""Deterministic fault injection, retrying communication, self-healing solvers.

The paper's design space (§VIII) is explored on machines where transient
communication faults and corrupted reductions are facts of life; this
package makes those hazards *reproducible experiments* and gives the
solver stack the machinery to survive them:

- :mod:`repro.resilience.faults` — seeded, declarative fault injection
  (:class:`FaultPlan` → :class:`FaultyComm`), logging every injected
  fault as a :class:`FaultEvent`;
- :mod:`repro.resilience.retry` — :class:`RetryingComm`, bounded retry
  with deterministic exponential backoff on a :class:`VirtualClock`;
- :mod:`repro.resilience.guard` — :class:`SolverGuard`, residual health
  checks plus in-memory checkpoint/rollback for CG/PPCG/Chebyshev;
- :mod:`repro.resilience.runner` — the canonical stack
  (:func:`build_resilient_comm`) and a turn-key benchmark driver
  (:func:`run_resilient`) whose defences the
  :class:`~repro.solvers.SolverOptions` choose;
- :mod:`repro.resilience.checkpoint` — durable atomic on-disk checkpoints
  (versioned manifest, per-array CRC32, per-rank shards) for simulation
  and solver state;
- :mod:`repro.resilience.integrity` — :class:`ChecksumComm`, checksummed
  redundant message envelopes and duplicate-lane reductions that turn
  silent payload corruption into detected, retryable faults;
- :mod:`repro.resilience.recovery` — the ULFM-style shrink/respawn
  protocol :func:`run_resilient` follows on rank loss when
  ``options.recovery`` is set, via the durable checkpoints;
- :mod:`repro.resilience.chaos` — seeded chaos campaigns: randomized
  fault storms over the *composed* stack, a differential invariant
  oracle against fault-free golden runs, ddmin fault-plan minimization
  into replayable fixtures, a recovery-SLO ledger, and a kill/restart
  soak runner.

See ``docs/resilience.md`` for the full model.
"""

from repro.resilience.chaos import (
    DEFAULT_BUDGETS,
    FAULT_CLASSES,
    ChaosCampaignResult,
    GoldenCache,
    SoakReport,
    TrialResult,
    TrialSpec,
    campaign_specs,
    known_bad_spec,
    load_fixture,
    minimize_and_write_fixture,
    random_fault_plan,
    replay_fixture,
    run_campaign,
    run_soak,
    run_trial,
    shrink_plan,
    storm_plan,
    write_fixture,
)
from repro.resilience.checkpoint import (
    CHECKPOINT_SCHEMA,
    CheckpointWarning,
    SolverCheckpointStore,
    array_crc32,
    commit_checkpoint,
    latest_checkpoint,
    load_rank_checkpoint,
    load_shard,
    read_manifest,
    validate_checkpoint,
    write_shard,
)
from repro.resilience.faults import (
    CrashWindow,
    FaultEvent,
    FaultPlan,
    FaultRule,
    FaultyComm,
    IterationCell,
)
from repro.resilience.guard import GuardEvent, Snapshot, SolverGuard
from repro.resilience.integrity import (
    INTEGRITY_KIND,
    ChecksumComm,
    IntegrityEvent,
)
from repro.resilience.recovery import RecoveryEvent
from repro.resilience.retry import RetryingComm, VirtualClock
from repro.resilience.runner import (
    ResilienceReport,
    ResilientStack,
    build_resilient_comm,
    run_resilient,
)

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CheckpointWarning",
    "ChaosCampaignResult",
    "ChecksumComm",
    "DEFAULT_BUDGETS",
    "FAULT_CLASSES",
    "GoldenCache",
    "SoakReport",
    "TrialResult",
    "TrialSpec",
    "CrashWindow",
    "FaultEvent",
    "FaultPlan",
    "FaultRule",
    "FaultyComm",
    "IterationCell",
    "GuardEvent",
    "INTEGRITY_KIND",
    "IntegrityEvent",
    "RecoveryEvent",
    "Snapshot",
    "SolverCheckpointStore",
    "SolverGuard",
    "RetryingComm",
    "VirtualClock",
    "ResilienceReport",
    "ResilientStack",
    "array_crc32",
    "build_resilient_comm",
    "campaign_specs",
    "commit_checkpoint",
    "known_bad_spec",
    "latest_checkpoint",
    "load_fixture",
    "load_rank_checkpoint",
    "load_shard",
    "minimize_and_write_fixture",
    "random_fault_plan",
    "read_manifest",
    "replay_fixture",
    "run_campaign",
    "run_resilient",
    "run_soak",
    "run_trial",
    "shrink_plan",
    "storm_plan",
    "validate_checkpoint",
    "write_fixture",
]
