"""One request's road through the solve service, stated once.

:class:`RequestLifecycle` is a plain synchronous object: no clock, no
event heap, no event loop, no worker — it reads time only through its
callers' arguments.  It owns everything with a single writer (the
journal, the result store, the per-tenant token buckets, the
completed-key map, the ``service.*`` counters), and its methods are the
steps of a request in the order a request takes them:

1. :meth:`arrive` — serve a duplicate of an acknowledged idempotency
   key, shed on quota or backlog, or journal ``accepted``;
2. :meth:`parse` — deck text → solver options, a poison deck → a
   structured ``failed``;
3. :meth:`dispatched` — attempt / worker / start-time bookkeeping and
   the ``dispatched`` record;
4. :meth:`digest` — make a converged solution durable, name its bits;
5. :meth:`settle` — the one classification table: reply kind ×
   dispatches left → status, error fields, breaker verdict, retry or
   not;
6. :meth:`terminal` — the ``terminal`` record and the completed-key map.

Its two drivers keep what only one of them has.  The virtual-clock
:class:`~repro.service.engine.ServiceEngine` has the event heap,
iteration-budget deadlines, fault plans, the setup cache, the pressure
ladder, journaled-attempt replay and backoff; the asyncio
:class:`~repro.service.front.SolveService` has request numbering,
in-flight-key futures, worker processes, wall-clock deadlines and the
watchdog.  Every record a driver journals except the engine's
``attempt`` is built here, so the two journals cannot drift apart.
"""

from __future__ import annotations

from dataclasses import replace

from repro.observe.metrics import MetricsRegistry
from repro.physics.deck import deck_solver_options, parse_deck_text
from repro.service.quota import TokenBucket
from repro.service.recovery import (
    ReplayIndex,
    deck_fingerprint,
    solution_digest,
)
from repro.service.requests import RequestOutcome, SolveRequest
from repro.utils.errors import ConfigurationError, JournalError

__all__ = ["RequestLifecycle"]


class RequestLifecycle:
    """The steps every request takes, and the state only they write."""

    def __init__(self, journal=None, results=None, *, quota_rate: float,
                 quota_burst: float, metrics: MetricsRegistry | None = None):
        self.journal = journal
        self.results = results
        self.quota_rate = quota_rate
        self.quota_burst = quota_burst
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.buckets: dict[str, TokenBucket] = {}
        #: what the journal already held when this process opened it
        self.replay = ReplayIndex.from_records(
            journal.records if journal is not None else [])
        #: idempotency key -> terminal record of the acknowledged
        #: completion (seeded from the journal, grown live)
        self.completed_keys: dict[str, dict] = dict(
            self.replay.completed_by_key)

    def record(self, record: dict) -> None:
        """Append ``record`` to the journal, if there is one."""
        if self.journal is not None:
            self.journal.append(record)

    def count(self, name: str) -> None:
        """One more of the ``service.<name>`` events."""
        self.metrics.counter(f"service.{name}").inc()

    # -- 1. admission ----------------------------------------------------------

    def arrive(self, req: SolveRequest, now: float, backlog: int, limit: int,
               journaled: dict | None = None
               ) -> tuple[RequestOutcome, bool]:
        """Admit ``req`` or end it here; ``(outcome, admitted)``.

        ``backlog``/``limit`` are the driver's measure of work already
        admitted (queue length, in-flight count) and its bound.
        Exactly-once acknowledgement: a key that already completed is
        answered from the journaled digest before quota is consulted —
        a client retrying an acknowledged request must not be charged,
        shed, or (worse) solved twice.  During recovery ``journaled``,
        the request's surviving admission record, decides instead: the
        seeded key map also knows about completions that happened
        *after* this arrival originally.
        """
        outcome = RequestOutcome(request_id=req.request_id,
                                 tenant=req.tenant, status="shed",
                                 arrival_s=req.arrival_s,
                                 idempotency_key=req.idempotency_key)
        key = req.idempotency_key
        dedup = (bool(key) if journaled is None
                 else journaled.get("type") == "dedup")
        done = self.completed_keys.get(key) if dedup else None
        if journaled is not None and dedup and done is None:
            raise JournalError(
                f"journal dedups {req.request_id} against key {key!r}, "
                f"but no completion for that key precedes it")
        if done is not None:
            outcome.status = "completed"
            outcome.deduplicated = True
            outcome.solver = done.get("solver", "")
            outcome.finish_s = now
            if self.results is not None and done.get("digest"):
                outcome.x = self.results.load(done["request_id"],
                                              done["digest"])
            self.count("deduplicated")
            self.record({"type": "dedup", "request_id": req.request_id,
                         "key": key, "source": done["request_id"],
                         "now": now})
            return outcome, False
        bucket = self.buckets.get(req.tenant)
        if bucket is None:
            bucket = self.buckets[req.tenant] = TokenBucket(
                self.quota_rate, self.quota_burst)
        if not bucket.try_acquire(now):
            return self._shed(outcome, "quota", "shed.quota", now), False
        if backlog >= limit:
            return self._shed(outcome, "queue_full", "shed.queue", now), False
        self.count("admitted")
        self.record({"type": "accepted", "request_id": req.request_id,
                     "tenant": req.tenant, "arrival_s": req.arrival_s,
                     "key": key, "n": req.n,
                     "deck_sha": deck_fingerprint(req.deck_text)})
        return outcome, True

    def _shed(self, outcome: RequestOutcome, reason: str, counter: str,
              now: float) -> RequestOutcome:
        outcome.shed_reason = reason
        outcome.finish_s = now
        self.count(counter)
        self.record({"type": "shed", "request_id": outcome.request_id,
                     "reason": reason, "now": now})
        return outcome

    # -- 2. deck -> options ----------------------------------------------------

    def parse(self, outcome: RequestOutcome, deck_text: str,
              managed_checkpoints: bool = False):
        """The deck's solver options, or ``None`` with ``outcome`` failed.

        *When* this runs is each driver's: the engine parses at dispatch
        (a poison deck journals ``dispatched`` and occupies a worker for
        ``overhead_s`` — pinned by ``SERVICE_9.json``), the front before
        it claims a worker (pinned by ``service_mixed``'s
        ``journal.records_per_request``).

        With ``managed_checkpoints`` the deck's ``tl_checkpoint_interval``
        becomes the guard's snapshot cadence and the driver chooses where
        the shards land (the deck's own ``tl_checkpoint_dir`` is a
        placeholder).  A deck that asks for rank-loss recovery
        (``tl_enable_recovery``) is a configuration error: recovery
        writes durable shards to the deck's own ``tl_checkpoint_dir``,
        which a client must not choose on the service's disk.
        """
        try:
            deck = parse_deck_text(deck_text)
            if deck.tl_enable_recovery:
                raise ConfigurationError(
                    "tl_enable_recovery is not served: rank-loss recovery "
                    "writes to a client-named tl_checkpoint_dir")
            options = deck_solver_options(deck)
            if managed_checkpoints and options.checkpoint_interval > 0:
                options = replace(
                    options,
                    guard_interval=(options.guard_interval
                                    or options.checkpoint_interval),
                    checkpoint_interval=0, checkpoint_dir="")
        except (ConfigurationError, ValueError) as exc:
            outcome.status = "failed"
            outcome.error_class = type(exc).__name__
            outcome.error_message = str(exc)[:200]
            return None
        outcome.solver = options.solver
        return options

    # -- 3. dispatch bookkeeping -----------------------------------------------

    def dispatched(self, outcome: RequestOutcome, worker: int,
                   now: float) -> None:
        """One more attempt of ``outcome``'s request starts on ``worker``."""
        outcome.status = "failed"   # until settle() or the driver says else
        if outcome.start_s < 0:
            outcome.start_s = now
        outcome.attempts += 1
        outcome.worker = worker
        self.record({"type": "dispatched",
                     "request_id": outcome.request_id,
                     "attempt": outcome.attempts, "worker": worker,
                     "now": now})

    # -- 4. the solution's durable name ----------------------------------------

    def digest(self, request_id: str, x) -> str:
        """Content digest of a served solution, persisted if there is a
        result store; ``""`` without a solution or anything to record it."""
        if x is None:
            return ""
        if self.results is not None:
            return self.results.save(request_id, x)
        if self.journal is not None:
            return solution_digest(x)
        return ""

    # -- 5. reply classification -----------------------------------------------

    def settle(self, outcome: RequestOutcome, breaker, kind: str, *,
               at: float, retry: bool, error: tuple[str, str] = ("", ""),
               degraded: bool = False, deadline: bool = False) -> bool:
        """Classify one reply; ``True`` means dispatch the request again.

        - ``ok`` → ``completed``, or ``degraded`` if ``degraded``;
        - ``deadline_exceeded`` / ``cancelled`` → that status — a
          ``cancelled`` whose token was fired by the wall-clock
          ``deadline`` is a ``deadline_exceeded``;
        - ``fatal`` → ``failed``;
        - ``stuck`` / ``retryable`` → a failure on ``breaker`` at time
          ``at``, then another dispatch while ``retry`` (dispatches are
          left), else ``failed``.

        Only the last row counts against the worker: in every other the
        solve ended as it would have on any healthy worker.  ``error`` is
        the reply's ``(class, message)``; it reaches the outcome only
        when this reply is the request's terminal failure, so a hedged
        success carries no trace of the attempt it replaced.
        """
        if kind in ("stuck", "retryable"):
            self.count("stuck" if kind == "stuck" else "retryable_failures")
            breaker.record_failure(at)
            if breaker.state == "open":
                self.count("breaker.opened")
            if retry:
                self.count("redispatches")
                return True
            outcome.status = "failed"
        else:
            breaker.record_success()
            if kind == "ok":
                outcome.status = "degraded" if degraded else "completed"
                return False
            if kind == "fatal":
                outcome.status = "failed"
            elif kind == "cancelled" and deadline:
                outcome.status = "deadline_exceeded"
            else:
                outcome.status = kind
        outcome.error_class, outcome.error_message = error
        return False

    # -- 6. the terminal record ------------------------------------------------

    def terminal(self, outcome: RequestOutcome, finish_s: float,
                 digest: str = "") -> None:
        """Close an admitted request: the record, and its key's completion."""
        outcome.finish_s = finish_s
        self.count(outcome.status)
        if outcome.status not in ("completed", "degraded"):
            digest = ""
        record = {"type": "terminal", "request_id": outcome.request_id,
                  "status": outcome.status, "finish_s": finish_s,
                  "key": outcome.idempotency_key, "digest": digest,
                  "solver": outcome.solver}
        self.record(record)
        if digest and outcome.idempotency_key:
            self.completed_keys.setdefault(outcome.idempotency_key, record)
