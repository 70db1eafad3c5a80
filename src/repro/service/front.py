"""Asyncio front-end of the solve service.

:class:`SolveService` accepts concurrent deck-style solve requests from
coroutines and executes them on a thread pool — each solve is a real
(optionally SPMD) solve through the resilient stack, with the same
admission control (token-bucket quota + bounded in-flight window) and
cooperative cancellation the deterministic engine applies.  Deadlines
here are *wall-clock*: a :class:`~repro.service.cancel.DeadlineCancel`
around the request's token reads the clock at every iteration boundary
and the solver raises there — same latched-boundary semantics, real time.

Dispatch is **breaker-gated**: a worker whose circuit breaker is open is
skipped (half-open probes are claimed atomically via
``CircuitBreaker.on_dispatch``), and a retryable or supervisor-declared
*stuck* result re-dispatches once, hedged onto a different worker.  With
``stuck_after_s`` set, a wall-clock watchdog arms per dispatch and trips
the :class:`~repro.service.supervisor.SupervisedToken` — the solve then
aborts cooperatively at its next iteration boundary with
:class:`~repro.utils.errors.WorkerStuck`.

With a ``journal`` (+ optional ``results`` store) the front records
lifecycle transitions durably and serves **exactly-once** answers for
idempotency keys across restarts — a resubmitted key whose completion is
journaled returns the stored digest/solution without a solve.  The
wall-clock front is append-only on the journal (its trajectory is not
deterministically replayable); full verify-or-append recovery is the
virtual-clock :class:`~repro.service.engine.ServiceEngine`'s job.

This is the interactive face (``repro serve --demo``,
``examples/service_demo.py``); capacity planning and chaos validation
run on the virtual-clock engine, whose ledgers are byte-deterministic.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor

from repro.physics.deck import deck_solver_options, parse_deck_text
from repro.service.cancel import CancelToken, DeadlineCancel
from repro.service.quota import TokenBucket
from repro.service.recovery import (
    ReplayIndex,
    deck_fingerprint,
    solution_digest,
)
from repro.service.requests import RequestOutcome
from repro.service.supervisor import SupervisedToken
from repro.service.worker import WorkerGroup
from repro.utils.errors import ConfigurationError

_DEADLINE_REASON = "deadline exceeded"

#: service-level dispatch attempts per request (initial + one hedge)
_MAX_DISPATCHES = 2


class SolveService:
    """Concurrent solve intake over a bounded thread worker pool."""

    def __init__(self, workers: int = 2, group_size: int = 1,
                 max_inflight: int = 8,
                 quota_rate: float = 10.0, quota_burst: float = 5.0,
                 stuck_after_s: float = 0.0,
                 journal=None, results=None):
        self.workers = workers
        self.group_size = group_size
        self.max_inflight = max_inflight
        self.quota_rate = quota_rate
        self.quota_burst = quota_burst
        self.stuck_after_s = stuck_after_s
        self.journal = journal
        self.results = results
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="solve-worker")
        self._buckets: dict[str, TokenBucket] = {}
        self._inflight = 0
        self._count = 0
        self._pool = [WorkerGroup(i, group_size=group_size)
                      for i in range(workers)]
        records = journal.records if journal is not None else []
        index = ReplayIndex.from_records(records)
        #: idempotency key -> terminal record (journal-seeded, grown live)
        self._completed_keys: dict[str, dict] = dict(index.completed_by_key)
        for rec in records:
            # Continue request numbering past the journal so replayed ids
            # never collide with new submissions.
            rid = rec.get("request_id", "")
            if rid.startswith("req-"):
                try:
                    self._count = max(self._count, int(rid[4:]))
                except ValueError:
                    pass
        if journal is not None:
            journal.fast_forward()

    def close(self) -> None:
        self._executor.shutdown(wait=True)
        if self.journal is not None:
            self.journal.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _bucket(self, tenant: str) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(self.quota_rate, self.quota_burst)
            self._buckets[tenant] = bucket
        return bucket

    def _journal(self, record: dict) -> None:
        if self.journal is not None:
            self.journal.append(record)

    def _pick_worker(self, now: float, avoid: int = -1):
        """Round-robin worker whose breaker admits this dispatch.

        ``on_dispatch`` is the atomic admit-and-claim: in half-open
        state exactly one in-flight probe wins, so concurrent submits
        cannot stampede a recovering worker.  Prefers workers other
        than ``avoid`` (the one that just failed the request).
        """
        start = (self._count - 1) % len(self._pool)
        order = self._pool[start:] + self._pool[:start]
        for w in sorted(order, key=lambda w: w.wid == avoid):
            if w.breaker.on_dispatch(now):
                return w
        return None

    async def submit(self, deck_text: str, *, tenant: str = "default",
                     n: int = 16, deadline_s: float | None = None,
                     cancel: CancelToken | None = None,
                     idempotency_key: str = "") -> RequestOutcome:
        """Admit and run one solve; always returns a terminal outcome.

        Pass your own ``cancel`` token to retain a mid-flight cancel
        handle (``token.cancel()`` from any task/thread aborts the solve
        at its next iteration boundary).  A non-empty
        ``idempotency_key`` whose completion is already journaled is
        served without a solve (``deduplicated=True``).
        """
        loop = asyncio.get_running_loop()
        now = loop.time()
        self._count += 1
        outcome = RequestOutcome(request_id=f"req-{self._count:05d}",
                                 tenant=tenant, status="shed",
                                 arrival_s=now,
                                 idempotency_key=idempotency_key)
        done = (self._completed_keys.get(idempotency_key)
                if idempotency_key else None)
        if done is not None:
            outcome.status = "completed"
            outcome.deduplicated = True
            outcome.solver = done.get("solver", "")
            outcome.finish_s = now
            if self.results is not None and done.get("digest"):
                outcome.x = self.results.load(done["request_id"],
                                              done["digest"])
            self._journal({"type": "dedup",
                           "request_id": outcome.request_id,
                           "key": idempotency_key,
                           "source": done["request_id"], "now": now})
            return outcome
        if not self._bucket(tenant).try_acquire(now):
            outcome.shed_reason = "quota"
            outcome.finish_s = now
            self._journal({"type": "shed",
                           "request_id": outcome.request_id,
                           "reason": "quota", "now": now})
            return outcome
        if self._inflight >= self.max_inflight:
            outcome.shed_reason = "queue_full"
            outcome.finish_s = now
            self._journal({"type": "shed",
                           "request_id": outcome.request_id,
                           "reason": "queue_full", "now": now})
            return outcome
        self._journal({"type": "accepted",
                       "request_id": outcome.request_id, "tenant": tenant,
                       "arrival_s": now, "key": idempotency_key, "n": n,
                       "deck_sha": deck_fingerprint(deck_text)})

        token = cancel if cancel is not None else CancelToken()
        timed = token
        if deadline_s is not None:
            timed = DeadlineCancel(token, loop.time() + deadline_s,
                                   _DEADLINE_REASON)

        digest = ""
        self._inflight += 1
        try:
            try:
                options = deck_solver_options(parse_deck_text(deck_text))
            except (ConfigurationError, ValueError) as exc:
                outcome.status = "failed"
                outcome.error_class = type(exc).__name__
                outcome.error_message = str(exc)[:200]
                return outcome
            outcome.solver = options.solver

            avoid = -1
            for attempt in range(1, _MAX_DISPATCHES + 1):
                worker = self._pick_worker(loop.time(), avoid=avoid)
                if worker is None:
                    # Every breaker refused: structured shed, the same
                    # way the engine sheds behind saturated admission.
                    outcome.status = "shed"
                    outcome.shed_reason = "breaker_open"
                    return outcome
                outcome.worker = worker.wid
                outcome.attempts = attempt
                if outcome.start_s < 0:
                    outcome.start_s = loop.time()
                self._journal({"type": "dispatched",
                               "request_id": outcome.request_id,
                               "attempt": attempt, "worker": worker.wid,
                               "now": loop.time()})
                run_token = timed
                watchdog = None
                if self.stuck_after_s > 0:
                    run_token = SupervisedToken(timed)
                    watchdog = loop.call_later(
                        self.stuck_after_s, run_token.trip,
                        f"worker {worker.wid} watchdog fired after "
                        f"{self.stuck_after_s}s")
                try:
                    result = await loop.run_in_executor(
                        self._executor,
                        lambda w=worker, t=run_token:
                            w.execute(options, n, cancel=t))
                finally:
                    if watchdog is not None:
                        watchdog.cancel()
                outcome.iterations = result.iterations
                now = loop.time()
                if result.kind == "ok":
                    worker.breaker.record_success()
                    outcome.status = "degraded" if result.report.degraded \
                        else "completed"
                    outcome.x = result.report.x
                    outcome.retries = result.report.retries
                    if result.report.x is not None:
                        if self.results is not None:
                            digest = self.results.save(outcome.request_id,
                                                       result.report.x)
                        elif self.journal is not None:
                            digest = solution_digest(result.report.x)
                    return outcome
                if result.kind in ("cancelled", "deadline_exceeded"):
                    worker.breaker.record_success()  # worker is healthy
                    if result.kind == "cancelled" \
                            and token.reason == _DEADLINE_REASON:
                        outcome.status = "deadline_exceeded"
                    else:
                        outcome.status = result.kind
                    outcome.error_class = result.error_class
                    outcome.error_message = str(result.error)[:200]
                    return outcome
                if result.kind in ("stuck", "retryable"):
                    # Count it against this worker and hedge the request
                    # onto a different one while dispatches remain.
                    worker.breaker.record_failure(now)
                    avoid = worker.wid
                    outcome.status = "failed"
                    outcome.error_class = result.error_class
                    outcome.error_message = str(result.error)[:200]
                    continue
                worker.breaker.record_success()  # solve failed, worker fine
                outcome.status = "failed"
                outcome.error_class = result.error_class
                outcome.error_message = str(result.error)[:200]
                return outcome
            return outcome
        finally:
            self._inflight -= 1
            outcome.finish_s = loop.time()
            terminal = {"type": "terminal",
                        "request_id": outcome.request_id,
                        "status": outcome.status,
                        "finish_s": outcome.finish_s,
                        "key": idempotency_key, "digest": digest,
                        "solver": outcome.solver}
            self._journal(terminal)
            if digest and idempotency_key \
                    and outcome.status in ("completed", "degraded"):
                self._completed_keys.setdefault(idempotency_key, terminal)
