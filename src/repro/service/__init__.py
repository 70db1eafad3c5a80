"""repro.service — multi-tenant solve engine.

Turns the solver library into a service: concurrent deck-style solve
requests with per-request **deadlines** (cooperative, rank-coherent
cancellation at iteration boundaries), **admission control** (per-tenant
token buckets, bounded queues, structured load shedding), **circuit
breakers + hedged retry** over SPMD worker groups,
**overload-graceful degradation** (solver/depth/backend ladder) and an
**LRU setup cache** for eigenvalue bounds and block-Jacobi
factorizations.

One request lifecycle (:class:`~repro.service.lifecycle.RequestLifecycle`:
admission, parse, dispatch bookkeeping, digest, reply classification,
the terminal record) has two drivers:

- :class:`~repro.service.engine.ServiceEngine` — deterministic
  discrete-event execution on virtual time (capacity planning, chaos
  validation, the ``SERVICE_<n>.json`` ledgers);
- :class:`~repro.service.front.SolveService` — an asyncio front-end on
  real time and worker processes, one BLAS thread each
  (:mod:`repro.service.process`; ``repro serve``, examples).

Both drivers are optionally **crash-consistent**: a
:class:`~repro.service.journal.RequestJournal` (CRC32-framed segmented
write-ahead log) records every lifecycle transition before the service
acts on it, a :class:`~repro.service.recovery.ResultStore` persists
converged solutions, and on restart the engine replays the journal with
exactly-once semantics — acknowledged completions are served from the
durable digest, the in-flight crash victim resumes mid-solve from its
guard shards (``resume="exact"``), and a
:class:`~repro.service.supervisor.SupervisedToken` bounds every
dispatch's liveness.
"""

from repro.service.breaker import CircuitBreaker
from repro.service.cache import SetupCache, fingerprint
from repro.service.cancel import (
    CancelToken,
    Cancelled,
    DeadlineCancel,
    DeadlineExceeded,
    ScheduledCancel,
)
from repro.service.degrade import LADDER, degrade_for_pressure
from repro.service.engine import (
    ServiceConfig,
    ServiceEngine,
    iteration_cost_s,
)
from repro.service.front import SolveService
from repro.service.journal import RequestJournal, encode_record, scan_journal
from repro.service.lifecycle import RequestLifecycle
from repro.service.quota import TokenBucket
from repro.service.recovery import (
    RecoveryWarning,
    ReplayIndex,
    ResultStore,
    deck_fingerprint,
    solution_digest,
)
from repro.service.requests import STATUSES, RequestOutcome, SolveRequest
from repro.service.supervisor import SupervisedToken
from repro.service.worker import ExecutionResult, WorkerGroup
from repro.utils.errors import JournalError, WorkerStuck

__all__ = [
    "CancelToken",
    "Cancelled",
    "CircuitBreaker",
    "DeadlineExceeded",
    "ExecutionResult",
    "JournalError",
    "LADDER",
    "RecoveryWarning",
    "ReplayIndex",
    "RequestJournal",
    "RequestLifecycle",
    "RequestOutcome",
    "ResultStore",
    "STATUSES",
    "DeadlineCancel",
    "ScheduledCancel",
    "ServiceConfig",
    "ServiceEngine",
    "SetupCache",
    "SolveRequest",
    "SolveService",
    "SupervisedToken",
    "TokenBucket",
    "WorkerGroup",
    "WorkerStuck",
    "deck_fingerprint",
    "degrade_for_pressure",
    "encode_record",
    "fingerprint",
    "iteration_cost_s",
    "scan_journal",
    "solution_digest",
]
