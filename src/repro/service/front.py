"""Asyncio front-end of the solve service: the wall-clock driver of
:class:`~repro.service.lifecycle.RequestLifecycle`.

:class:`SolveService` accepts concurrent deck-style solve requests from
coroutines and takes each through the lifecycle's steps (admission,
parse, dispatch bookkeeping, digest, reply classification, the terminal
record — journaled and exactly-once per idempotency key when opened with
a ``journal``).  What is this driver's own:

- **worker processes** (:mod:`repro.service.process`: one per
  ``workers``, one BLAS thread each).  A dispatch sends the parsed
  options, ``n`` and the deadline out and gets a slim reply back; a
  request waits only while *every* admitting worker is busy, and takes
  the first one that frees.  Dispatch is breaker-gated (half-open probes
  are claimed atomically via ``CircuitBreaker.on_dispatch``); a worker
  that dies under a dispatch answers ``retryable``/``WorkerDied`` and is
  replaced in its slot; at most one hedge (``_MAX_DISPATCHES``) goes to
  a different worker, and with every breaker open the request is shed
  (``breaker_open``);
- **wall-clock deadlines and the watchdog**: the worker wraps its token
  in a :class:`~repro.service.cancel.DeadlineCancel` that reads the
  clock at every iteration boundary, and with ``stuck_after_s`` a
  ``loop.call_later`` per dispatch trips the worker's
  :class:`~repro.service.supervisor.SupervisedToken` through the cancel
  slot — either way the solve aborts at its next iteration boundary;
- **in-flight idempotency keys**: a key submitted while its first bearer
  is still in flight waits for that bearer instead of solving beside it;
- **request numbering**, continued past an existing journal, on which
  this driver is append-only (its trajectory is not deterministically
  replayable: verify-or-append recovery is the virtual-clock
  :class:`~repro.service.engine.ServiceEngine`'s job).

This is the interactive face (``repro serve --demo``,
``examples/service_demo.py``); capacity planning and chaos validation
run on the engine, whose ledgers are byte-deterministic.
"""

from __future__ import annotations

import asyncio

from repro.service.cancel import CancelToken
from repro.service.lifecycle import RequestLifecycle
from repro.service.process import DEADLINE_REASON, WorkerProcess
from repro.service.requests import RequestOutcome, SolveRequest

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
        self.stuck_after_s = stuck_after_s
        self.journal = journal
        self.results = results
        #: the steps both service drivers share, and their single-writer
        #: state (journal, result store, quotas, completed keys, counters)
        self.life = RequestLifecycle(journal, results, quota_rate=quota_rate,
                                     quota_burst=quota_burst)
        self._inflight = 0
        self._count = 0
        #: futures of submits waiting for a worker to free
        self._waiters: list[asyncio.Future] = []
        #: idempotency key -> future resolved at its first bearer's terminal
        self._inflight_keys: dict[str, asyncio.Future] = {}
        for rec in journal.records if journal is not None else []:
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
        self._count += 1
        req = SolveRequest(f"req-{self._count:05d}", tenant, loop.time(),
                           deck_text, n, deadline_s=deadline_s,
                           idempotency_key=idempotency_key)
        # Concurrency, so before the lifecycle's first step: the first
        # bearer may yet fail or be cancelled, so look again once it is
        # terminal, and solve only if nobody completed.
        while idempotency_key in self._inflight_keys \
                and idempotency_key not in self.life.completed_keys:
            await self._inflight_keys[idempotency_key]
        outcome, admitted = self.life.arrive(
            req, loop.time(), self._inflight, self.max_inflight)
        if not admitted:
            return outcome
        deadline = None if deadline_s is None else loop.time() + deadline_s
        digest = ""
        self._inflight += 1
        if idempotency_key:
            self._inflight_keys[idempotency_key] = loop.create_future()
        try:
            digest = await self._serve(
                req, outcome, deadline,
                cancel if cancel is not None else CancelToken(), loop)
            return outcome
        finally:
            self._inflight -= 1
            self.life.terminal(outcome, loop.time(), digest)
            if idempotency_key:
                self._inflight_keys.pop(idempotency_key).set_result(None)

    async def _serve(self, req: SolveRequest, outcome: RequestOutcome,
                     deadline: float | None, token: CancelToken, loop) -> str:
        """Parse, dispatch and settle an admitted request; its digest."""
        # Parsed here, before a worker is claimed: see parse().
        options = self.life.parse(outcome, req.deck_text)
        if options is None:
            return ""
        avoid = -1
        while True:
            worker = await self._claim_worker(loop, avoid=avoid)
            if worker is None:
                # Every breaker refused: structured shed.  (The engine
                # waits out the cooldown instead — its clock is free.)
                outcome.status = "shed"
                outcome.shed_reason = "breaker_open"
                return ""
            try:
                self.life.dispatched(outcome, worker.wid, loop.time())
                reply = await worker.solve(options, req.n, deadline, token,
                                           self.stuck_after_s)
            finally:
                self._release_worker(worker)
            outcome.iterations = reply.iterations
            if reply.kind == "ok":
                outcome.x = reply.x
                outcome.retries = reply.retries
            digest = self.life.digest(req.request_id, reply.x)
            # A stuck or retryable reply is hedged onto a different
            # worker while dispatches remain.
            if not self.life.settle(
                    outcome, worker.breaker, reply.kind, at=loop.time(),
                    retry=outcome.attempts < _MAX_DISPATCHES,
                    error=(reply.error_class, reply.error_message),
                    degraded=reply.degraded,
                    deadline=reply.cancel_reason == DEADLINE_REASON):
                return digest
            avoid = worker.wid
