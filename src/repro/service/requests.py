"""Request/outcome records of the multi-tenant solve service.

A :class:`SolveRequest` is a deck-style solve submission.  The deck text
is parsed after admission, never before (a poison deck costs the service
one structured ``failed`` outcome instead of crashing the front-end) —
by the engine *at dispatch time*, by the asyncio front before it claims
a worker (see :meth:`repro.service.lifecycle.RequestLifecycle.parse`).
A :class:`RequestOutcome` is the terminal record every request ends in —
the lifecycle guarantees exactly one of the :data:`STATUSES` for every
admitted or shed request, which is what the sweep's "zero unclassified
failures" acceptance gate asserts on.

Times are seconds on the driver's clock: virtual on the engine's
discrete-event clock (so same-seed runs produce byte-identical outcome
ledgers), ``loop.time()`` readings in the front.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Terminal request states.  ``completed``/``degraded`` carry a converged
#: solution (degraded = the options were laddered down under pressure or
#: the solver degraded internally); ``shed`` was refused at admission;
#: ``deadline_exceeded``/``cancelled`` aborted cooperatively mid-solve;
#: ``failed`` carries a structured error class + message.
STATUSES = ("completed", "degraded", "shed", "deadline_exceeded",
            "cancelled", "failed")


@dataclass(frozen=True)
class SolveRequest:
    """One tenant's deck-style solve submission.

    ``deadline_s`` and ``cancel_after_s`` are relative to ``arrival_s``;
    ``None`` disables them.  ``max_attempts`` bounds service-level
    re-dispatches of retryable failures (worker crash, exhausted comm
    retry budget) — distinct from the per-attempt comm-level retry
    budget inside the resilient stack.

    A non-empty ``idempotency_key`` opts the request into exactly-once
    acknowledgement: once any request bearing the key completes, later
    submissions with the same key are served the journaled result
    (status ``completed``, ``deduplicated=True``) without a solve —
    including across a crash/restart when the engine runs with a
    :class:`~repro.service.journal.RequestJournal`.
    """

    request_id: str
    tenant: str
    arrival_s: float
    deck_text: str
    n: int = 16
    deadline_s: float | None = None
    cancel_after_s: float | None = None
    max_attempts: int = 2
    chaos_trial: int = -1  #: >= 0 seeds a fault plan for this request
    chaos_crash: bool = False  #: fault plan includes a fatal rank crash
    idempotency_key: str = ""  #: non-empty: exactly-once dedup key


@dataclass
class RequestOutcome:
    """Terminal record of one request (one of :data:`STATUSES`)."""

    request_id: str
    tenant: str
    status: str
    arrival_s: float
    start_s: float = -1.0      #: first dispatch time (-1: never dispatched)
    finish_s: float = -1.0
    attempts: int = 0
    iterations: int = 0
    solver: str = ""
    degrade_steps: list = field(default_factory=list)
    shed_reason: str = ""
    error_class: str = ""
    error_message: str = ""
    cache_hit: bool = False
    worker: int = -1
    retries: int = 0           #: comm-level retries inside the stack
    idempotency_key: str = ""
    deduplicated: bool = False  #: served from a prior completion's journal
    x = None                   #: solution array (oracle input; not in ledgers)

    @property
    def latency_s(self) -> float:
        """Arrival-to-terminal virtual latency (shed requests: 0)."""
        if self.finish_s < 0:
            return 0.0
        return self.finish_s - self.arrival_s

    def to_dict(self) -> dict:
        """JSON-ready record (solution array excluded)."""
        return {
            "request_id": self.request_id,
            "tenant": self.tenant,
            "status": self.status,
            "arrival_s": self.arrival_s,
            "start_s": self.start_s,
            "finish_s": self.finish_s,
            "latency_s": self.latency_s,
            "attempts": self.attempts,
            "iterations": self.iterations,
            "solver": self.solver,
            "degrade_steps": list(self.degrade_steps),
            "shed_reason": self.shed_reason,
            "error_class": self.error_class,
            "error_message": self.error_message,
            "cache_hit": self.cache_hit,
            "worker": self.worker,
            "retries": self.retries,
            "idempotency_key": self.idempotency_key,
            "deduplicated": self.deduplicated,
        }
