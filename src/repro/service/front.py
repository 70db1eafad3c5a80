"""Asyncio front-end of the solve service.

:class:`SolveService` accepts concurrent deck-style solve requests from
coroutines and executes them on worker **processes**
(:mod:`repro.service.process`: one per ``workers``, one BLAS thread each)
— each solve is a real (optionally SPMD) solve through the resilient
stack, with the same admission control (token-bucket quota + bounded
in-flight window) and cooperative cancellation the deterministic engine
applies.  Everything with a single writer stays in this process — the
journal, the result store, quotas, breakers, the idempotency maps,
request numbering; a dispatch sends the parsed options, ``n`` and the
deadline out and gets a slim reply back.  Deadlines here are
*wall-clock*: the worker wraps its token in a
:class:`~repro.service.cancel.DeadlineCancel` that reads the clock at
every iteration boundary and the solver raises there — same
latched-boundary semantics, real time.  A request waits only while
*every* admitting worker is busy, and takes the first one that frees.

Dispatch is **breaker-gated**: a worker whose circuit breaker is open is
skipped (half-open probes are claimed atomically via
``CircuitBreaker.on_dispatch``), and a retryable or supervisor-declared
*stuck* result re-dispatches once, hedged onto a different worker — and
a worker process that dies under a dispatch is such a retryable result
(``WorkerDied``), with a replacement started in its slot.  With
``stuck_after_s`` set, a wall-clock watchdog arms per dispatch and trips
the worker's :class:`~repro.service.supervisor.SupervisedToken` through
the cancel slot — the solve then aborts cooperatively at its next
iteration boundary with :class:`~repro.utils.errors.WorkerStuck`.

With a ``journal`` (+ optional ``results`` store) the front records
lifecycle transitions durably and serves **exactly-once** answers for
idempotency keys across restarts — a resubmitted key whose completion is
journaled returns the stored digest/solution without a solve, and one
submitted while its first bearer is still in flight waits for that
bearer instead of solving beside it.  The
wall-clock front is append-only on the journal (its trajectory is not
deterministically replayable); full verify-or-append recovery is the
virtual-clock :class:`~repro.service.engine.ServiceEngine`'s job.

This is the interactive face (``repro serve --demo``,
``examples/service_demo.py``); capacity planning and chaos validation
run on the virtual-clock engine, whose ledgers are byte-deterministic.
"""

from __future__ import annotations

import asyncio

from repro.physics.deck import deck_solver_options, parse_deck_text
from repro.service.cancel import CancelToken
from repro.service.process import DEADLINE_REASON, WorkerProcess
from repro.service.quota import TokenBucket
from repro.service.recovery import (
    ReplayIndex,
    deck_fingerprint,
    solution_digest,
)
from repro.service.requests import RequestOutcome
from repro.utils.errors import ConfigurationError

#: service-level dispatch attempts per request (initial + one hedge)
_MAX_DISPATCHES = 2


class SolveService:
    """Concurrent solve intake over a fixed pool of worker processes."""

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
        self._buckets: dict[str, TokenBucket] = {}
        self._inflight = 0
        self._count = 0
        #: futures of submits waiting for a worker to free
        self._waiters: list[asyncio.Future] = []
        records = journal.records if journal is not None else []
        index = ReplayIndex.from_records(records)
        #: idempotency key -> terminal record (journal-seeded, grown live)
        self._completed_keys: dict[str, dict] = dict(index.completed_by_key)
        #: idempotency key -> future resolved at its first bearer's terminal
        self._inflight_keys: dict[str, asyncio.Future] = {}
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
        #: started last (nothing above can fail and strand them) and not
        #: waited for: they import while the caller gets on, and the
        #: first dispatches absorb what is left
        self._pool = [WorkerProcess(i, group_size=group_size)
                      for i in range(workers)]
        #: the pool, most recently released first
        self._warm = list(self._pool)

    def close(self) -> None:
        """Stop every worker process (none outlives this call)."""
        for worker in self._pool:
            worker.close()
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

    async def _claim_worker(self, loop, avoid: int = -1):
        """An idle worker whose breaker admits this dispatch, claimed.

        ``on_dispatch`` is the atomic admit-and-claim: in half-open
        state exactly one in-flight probe wins, so concurrent submits
        cannot stampede a recovering worker.  The most recently
        released worker goes first (its caches are warm), after the
        workers other than ``avoid`` (the one that just failed the
        request).  While every admitting worker is busy the submit waits
        for the next release — never behind one particular worker — and
        ``None`` means every breaker refused.
        """
        while True:
            now = loop.time()
            for w in sorted(self._warm, key=lambda w: w.wid == avoid):
                if not w.busy and w.breaker.on_dispatch(now):
                    w.busy = True
                    return w
            if not any(w.busy and w.breaker.allow(now) for w in self._pool):
                return None
            freed = loop.create_future()
            self._waiters.append(freed)
            try:
                await freed
            finally:
                self._waiters.remove(freed)

    def _release_worker(self, worker: WorkerProcess) -> None:
        worker.busy = False
        self._warm.remove(worker)
        self._warm.insert(0, worker)
        for freed in self._waiters:
            if not freed.done():
                freed.set_result(None)

    def _serve_duplicate(self, outcome: RequestOutcome, done: dict,
                         now: float) -> RequestOutcome:
        """Answer ``outcome`` from its key's journaled completion."""
        outcome.status = "completed"
        outcome.deduplicated = True
        outcome.solver = done.get("solver", "")
        outcome.finish_s = now
        if self.results is not None and done.get("digest"):
            outcome.x = self.results.load(done["request_id"], done["digest"])
        self._journal({"type": "dedup", "request_id": outcome.request_id,
                       "key": outcome.idempotency_key,
                       "source": done["request_id"], "now": now})
        return outcome

    async def submit(self, deck_text: str, *, tenant: str = "default",
                     n: int = 16, deadline_s: float | None = None,
                     cancel: CancelToken | None = None,
                     idempotency_key: str = "") -> RequestOutcome:
        """Admit and run one solve; always returns a terminal outcome.

        Pass your own ``cancel`` token to retain a mid-flight cancel
        handle (``token.cancel()`` from any task/thread aborts the solve
        at its next iteration boundary).  A non-empty
        ``idempotency_key`` whose completion is already journaled is
        served without a solve (``deduplicated=True``); one whose first
        bearer is still in flight waits for that bearer's terminal and
        is then served the same way.
        """
        loop = asyncio.get_running_loop()
        now = loop.time()
        self._count += 1
        outcome = RequestOutcome(request_id=f"req-{self._count:05d}",
                                 tenant=tenant, status="shed",
                                 arrival_s=now,
                                 idempotency_key=idempotency_key)
        while idempotency_key:
            done = self._completed_keys.get(idempotency_key)
            if done is not None:
                return self._serve_duplicate(outcome, done, now)
            first = self._inflight_keys.get(idempotency_key)
            if first is None:
                break
            # The first bearer may yet fail or be cancelled: look again
            # once it is terminal, and solve only if nobody completed.
            await first
            now = loop.time()
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
        deadline = None if deadline_s is None else loop.time() + deadline_s

        digest = ""
        self._inflight += 1
        if idempotency_key:
            self._inflight_keys[idempotency_key] = loop.create_future()
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
                worker = await self._claim_worker(loop, avoid=avoid)
                if worker is None:
                    # Every breaker refused: structured shed, the same
                    # way the engine sheds behind saturated admission.
                    outcome.status = "shed"
                    outcome.shed_reason = "breaker_open"
                    return outcome
                try:
                    outcome.worker = worker.wid
                    outcome.attempts = attempt
                    if outcome.start_s < 0:
                        outcome.start_s = loop.time()
                    self._journal({"type": "dispatched",
                                   "request_id": outcome.request_id,
                                   "attempt": attempt, "worker": worker.wid,
                                   "now": loop.time()})
                    reply = await worker.solve(options, n, deadline, token,
                                               self.stuck_after_s)
                finally:
                    self._release_worker(worker)
                outcome.iterations = reply.iterations
                now = loop.time()
                if reply.kind == "ok":
                    worker.breaker.record_success()
                    outcome.status = "degraded" if reply.degraded \
                        else "completed"
                    outcome.x = reply.x
                    outcome.retries = reply.retries
                    if reply.x is not None:
                        if self.results is not None:
                            digest = self.results.save(outcome.request_id,
                                                       reply.x)
                        elif self.journal is not None:
                            digest = solution_digest(reply.x)
                    return outcome
                outcome.error_class = reply.error_class
                outcome.error_message = reply.error_message
                if reply.kind in ("cancelled", "deadline_exceeded"):
                    worker.breaker.record_success()  # worker is healthy
                    if reply.kind == "cancelled" \
                            and reply.cancel_reason == DEADLINE_REASON:
                        outcome.status = "deadline_exceeded"
                    else:
                        outcome.status = reply.kind
                    return outcome
                outcome.status = "failed"
                if reply.kind in ("stuck", "retryable"):
                    # Count it against this worker and hedge the request
                    # onto a different one while dispatches remain.
                    worker.breaker.record_failure(now)
                    avoid = worker.wid
                    continue
                worker.breaker.record_success()  # solve failed, worker fine
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
            if idempotency_key:
                self._inflight_keys.pop(idempotency_key).set_result(None)
