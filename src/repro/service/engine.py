"""Deterministic multi-tenant solve engine.

The engine is a discrete-event scheduler over **virtual time**: requests
arrive at seeded virtual timestamps, admission control (per-tenant token
buckets + a bounded queue) sheds overload, and a pool of
:class:`~repro.service.worker.WorkerGroup` slots executes the solves —
**real** SPMD solves, run synchronously in event order, whose *virtual*
duration is charged from a per-iteration cost model plus the resilient
stack's injected latency.  Because no wall clock is consulted anywhere,
two same-seed runs produce byte-identical outcome ledgers — which is how
the service sweep pins hundreds of mixed chaos requests in CI.

Per request the engine provides:

- **deadlines** — converted up front into an iteration budget on a
  :class:`~repro.service.cancel.CancelToken`, so expiry is a pure
  function of the iteration counter and rank-coherent;
- **client cancels** — a ``cancel_after_s`` lands as a
  :class:`~repro.service.cancel.ScheduledCancel` at the matching
  iteration boundary;
- **admission control** — token-bucket quota per tenant, bounded queue,
  structured shed outcomes;
- **circuit breaking + hedged retry** — per-worker breakers route
  around crashing groups; retryable failures re-dispatch with backoff,
  preferring a *different* worker;
- **graceful degradation** — queue-pressure watermarks ladder options
  down (:mod:`repro.service.degrade`);
- **setup caching** — eigenvalue bounds / block-Jacobi factorizations
  reused across requests (:mod:`repro.service.cache`).

Every request terminates in exactly one
:data:`~repro.service.requests.STATUSES` — the engine has no
"unclassified" exit path.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.observe.metrics import MetricsRegistry
from repro.physics.deck import deck_solver_options, parse_deck_text
from repro.resilience.chaos import random_fault_plan
from repro.service.cancel import CancelToken, ScheduledCancel
from repro.service.cache import SetupCache
from repro.service.degrade import degrade_for_pressure
from repro.service.quota import TokenBucket
from repro.service.recovery import (
    ReplayIndex,
    deck_fingerprint,
    solution_digest,
    synthesize_result,
)
from repro.service.requests import RequestOutcome, SolveRequest
from repro.service.supervisor import SupervisedToken
from repro.service.worker import WorkerGroup
from repro.solvers.driver import SolveSetup
from repro.solvers.eigen import EigenBounds
from repro.utils.errors import ConfigurationError, JournalError

#: Virtual seconds one solver iteration costs per mesh cell.
_CELL_COST_S = 1e-7

#: Relative per-iteration weight of each outer solver iteration (PPCG
#: outer iterations run ``inner_steps`` Chebyshev applications, hence the
#: large factor).
_SOLVER_WEIGHT = {
    "jacobi": 0.6,
    "cg": 1.0,
    "cg_fused": 0.9,
    "chebyshev": 1.1,
    "ppcg": 5.0,
    "dcg": 1.5,
    "mgcg": 4.0,
}


def iteration_cost_s(solver: str, n: int) -> float:
    """Virtual cost of one outer iteration of ``solver`` on an n×n mesh."""
    return _SOLVER_WEIGHT.get(solver, 1.0) * _CELL_COST_S * n * n


@dataclass(frozen=True)
class ServiceConfig:
    """Engine knobs (all virtual-time)."""

    workers: int = 2
    group_size: int = 1
    max_queue: int = 8
    quota_rate: float = 50.0        #: tokens / virtual second / tenant
    quota_burst: float = 10.0
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 0.5
    retry_backoff_s: float = 0.01   #: service-level re-dispatch backoff
    comm_attempts: int = 5          #: retry budget inside the comm stack
    degrade_low: float = 0.5        #: queue-pressure watermark → level 1
    degrade_high: float = 0.8       #: queue-pressure watermark → level 2
    degrade_enabled: bool = True
    cache_entries: int = 32
    cache_enabled: bool = True
    overhead_s: float = 2e-4        #: fixed dispatch/teardown charge
    failure_cost_s: float = 0.01    #: virtual charge of a failed attempt
    chaos_seed: int = 0             #: base seed for per-request fault plans
    #: Supervisor liveness allowance: a dispatch running longer than this
    #: (virtual seconds, converted to an iteration allowance up front) is
    #: declared stuck, cancelled via :class:`WorkerStuck` and
    #: re-dispatched under the breaker/hedging machinery.  0 disables.
    stuck_after_s: float = 0.0


@dataclass
class _Pending:
    """One admitted request's mutable dispatch state."""

    req: SolveRequest
    outcome: RequestOutcome
    attempts: int = 0
    last_worker: int = -1
    options: object = None          #: parsed SolverOptions (lazy)
    parse_error: BaseException | None = None
    degrade_steps: list = field(default_factory=list)
    digest: str = ""                #: converged solution's content digest


class ServiceEngine:
    """Run a batch of requests to terminal outcomes on virtual time."""

    def __init__(self, config: ServiceConfig | None = None, tracer=None,
                 journal=None, results=None, checkpoint_root=None):
        """``journal``/``results``/``checkpoint_root`` opt into crash
        consistency (all default off → byte-identical legacy behaviour):

        - ``journal`` — a :class:`~repro.service.journal.RequestJournal`;
          every lifecycle transition is framed to it before the engine
          acts, and a journal opened over surviving records puts the
          engine in recovery: the deterministic re-run *verifies* the
          journaled prefix and skips every solve whose classified
          ``attempt`` record is already durable;
        - ``results`` — a :class:`~repro.service.recovery.ResultStore`
          persisting converged solutions, so replayed/deduplicated
          completions are served without re-solving;
        - ``checkpoint_root`` — directory under which guard-enabled
          requests get per-request durable solver shards
          (``<root>/<request_id>/``); the in-flight crash victim then
          resumes mid-solve with ``resume="exact"``.
        """
        self.config = config if config is not None else ServiceConfig()
        self.metrics = MetricsRegistry()
        self.cache = SetupCache(self.config.cache_entries,
                                metrics=self.metrics)
        self.workers = [
            WorkerGroup(i, group_size=self.config.group_size,
                        max_attempts=self.config.comm_attempts)
            for i in range(self.config.workers)
        ]
        for w in self.workers:
            w.breaker.failure_threshold = self.config.breaker_threshold
            w.breaker.cooldown_s = self.config.breaker_cooldown_s
        self.buckets: dict[str, TokenBucket] = {}
        self.now = 0.0
        if tracer is None:
            from repro.observe.trace import NULL_TRACER
            tracer = NULL_TRACER
        self.tracer = tracer
        self._heap: list = []
        self._seq = 0
        self._queue: list[_Pending] = []
        self._outcomes: dict[str, RequestOutcome] = {}
        self.journal = journal
        self.results = results
        self.checkpoint_root = (Path(checkpoint_root)
                                if checkpoint_root is not None else None)
        self.replay = ReplayIndex.from_records(
            journal.records if journal is not None else [])
        #: idempotency key -> terminal record of the acknowledged
        #: completion (seeded from the journal, grown live)
        self._completed_keys: dict[str, dict] = dict(
            self.replay.completed_by_key)
        self.replayed_attempts = 0
        self.resumed_requests: list[str] = []
        self.deduplicated = 0

    # -- event plumbing --------------------------------------------------------

    def _push(self, when: float, kind: str, payload) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (when, self._seq, kind, payload))

    def _count(self, name: str) -> None:
        self.metrics.counter(f"service.{name}").inc()

    def _journal(self, record: dict) -> None:
        if self.journal is not None:
            self.journal.append(record)

    def recovery_summary(self) -> dict:
        """Runtime recovery statistics (crash-*variant*: not for ledgers)."""
        return {
            "journal_records": (self.journal.record_count
                                if self.journal is not None else 0),
            "journal_warnings": (list(self.journal.warnings)
                                 if self.journal is not None else []),
            "replayed_prefix": self.replay.record_count,
            "replayed_attempts": self.replayed_attempts,
            "resumed_requests": list(self.resumed_requests),
            "deduplicated": self.deduplicated,
        }

    # -- public API ------------------------------------------------------------

    def run(self, requests: list[SolveRequest]) -> list[RequestOutcome]:
        """Drive every request to a terminal outcome; arrival order out."""
        ordered = sorted(requests, key=lambda r: (r.arrival_s, r.request_id))
        for req in ordered:
            self._push(req.arrival_s, "arrival", req)
        while self._heap or self._queue:
            if not self._heap:
                # Queue non-empty but nothing scheduled: every worker is
                # idle behind an open breaker.  Wake at the earliest
                # cooldown expiry so probes (half-open) drain the queue —
                # breakers always reopen, so progress is guaranteed.
                wake = min(w.breaker._opened_at + w.breaker.cooldown_s
                           for w in self.workers)
                self._push(max(wake, self.now), "wake", None)
            when, _, kind, payload = heapq.heappop(self._heap)
            self.now = when
            if kind == "arrival":
                self._admit(payload)
            elif kind == "complete":
                self._complete(*payload)
            elif kind == "retry":
                self._enqueue(payload)
            self._dispatch()
        return [self._outcomes[r.request_id] for r in ordered]

    # -- admission -------------------------------------------------------------

    def _bucket(self, tenant: str) -> TokenBucket:
        bucket = self.buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(self.config.quota_rate,
                                 self.config.quota_burst)
            self.buckets[tenant] = bucket
        return bucket

    def _admit(self, req: SolveRequest) -> None:
        outcome = RequestOutcome(request_id=req.request_id,
                                 tenant=req.tenant, status="shed",
                                 arrival_s=req.arrival_s,
                                 idempotency_key=req.idempotency_key)
        self._outcomes[req.request_id] = outcome
        # Exactly-once acknowledgement: a key that already completed is
        # answered from the journaled digest before quota is consulted —
        # a client retrying an acknowledged request must not be charged,
        # shed, or (worse) solved twice.  During recovery the journaled
        # admission decision wins: the seeded key map also knows about
        # completions that happened *after* this arrival originally.
        adm = self.replay.admissions.get(req.request_id)
        if adm is not None:
            done = (self._completed_keys.get(req.idempotency_key)
                    if adm.get("type") == "dedup" else None)
            if adm.get("type") == "dedup" and done is None:
                raise JournalError(
                    f"journal dedups {req.request_id} against key "
                    f"{req.idempotency_key!r}, but no completion for that "
                    f"key precedes it")
        else:
            done = (self._completed_keys.get(req.idempotency_key)
                    if req.idempotency_key else None)
        if done is not None:
            outcome.status = "completed"
            outcome.deduplicated = True
            outcome.solver = done.get("solver", "")
            outcome.finish_s = self.now
            if self.results is not None and done.get("digest"):
                outcome.x = self.results.load(done["request_id"],
                                              done["digest"])
            self.deduplicated += 1
            self._count("deduplicated")
            self._journal({"type": "dedup", "request_id": req.request_id,
                           "key": req.idempotency_key,
                           "source": done["request_id"], "now": self.now})
            return
        if not self._bucket(req.tenant).try_acquire(self.now):
            outcome.shed_reason = "quota"
            outcome.finish_s = self.now
            self._count("shed.quota")
            self._journal({"type": "shed", "request_id": req.request_id,
                           "reason": "quota", "now": self.now})
            return
        if len(self._queue) >= self.config.max_queue:
            outcome.shed_reason = "queue_full"
            outcome.finish_s = self.now
            self._count("shed.queue")
            self._journal({"type": "shed", "request_id": req.request_id,
                           "reason": "queue_full", "now": self.now})
            return
        self._count("admitted")
        self._journal({"type": "accepted", "request_id": req.request_id,
                       "tenant": req.tenant, "arrival_s": req.arrival_s,
                       "key": req.idempotency_key, "n": req.n,
                       "deck_sha": deck_fingerprint(req.deck_text)})
        self._enqueue(_Pending(req=req, outcome=outcome))

    def _enqueue(self, pending: _Pending) -> None:
        self._queue.append(pending)

    # -- dispatch --------------------------------------------------------------

    def _pick_worker(self, avoid: int) -> WorkerGroup | None:
        """Lowest-id idle worker whose breaker admits a dispatch.

        Hedged re-dispatch: prefer a worker other than the one that just
        failed the request, falling back to it only when it is the sole
        healthy slot.
        """
        candidates = [w for w in self.workers
                      if w.busy_until <= self.now and w.breaker.allow(self.now)]
        if not candidates:
            return None
        preferred = [w for w in candidates if w.wid != avoid]
        return (preferred or candidates)[0]

    def _pressure_level(self) -> int:
        if not self.config.degrade_enabled or self.config.max_queue <= 0:
            return 0
        pressure = len(self._queue) / self.config.max_queue
        if pressure >= self.config.degrade_high:
            return 2
        if pressure >= self.config.degrade_low:
            return 1
        return 0

    def _dispatch(self) -> None:
        while self._queue:
            worker = self._pick_worker(avoid=self._queue[0].last_worker)
            if worker is None:
                return
            pending = self._queue.pop(0)
            self._execute(pending, worker)

    def _parse(self, pending: _Pending) -> bool:
        """Parse the deck once; False means the request is poison."""
        if pending.options is not None or pending.parse_error is not None:
            return pending.parse_error is None
        try:
            deck = parse_deck_text(pending.req.deck_text)
            options = deck_solver_options(deck)
            if self.checkpoint_root is not None \
                    and options.checkpoint_interval > 0:
                # Service-managed durability: the deck's
                # ``tl_checkpoint_interval`` becomes the guard's snapshot
                # cadence and the shards land in the per-request
                # directory under ``checkpoint_root`` (the deck's own
                # ``tl_checkpoint_dir`` is a placeholder here).
                options = replace(
                    options,
                    guard_interval=(options.guard_interval
                                    or options.checkpoint_interval),
                    checkpoint_interval=0, checkpoint_dir="")
            pending.options = options
        except (ConfigurationError, ValueError) as exc:
            pending.parse_error = exc
        return pending.parse_error is None

    def _checkpoint_dir_for(self, pending: _Pending):
        """Per-request durable solver-shard directory (or ``None``)."""
        if self.checkpoint_root is None or pending.options is None \
                or pending.options.guard_interval <= 0:
            return None
        return self.checkpoint_root / pending.req.request_id

    def _cache_key(self, options, n: int):
        return (n, self.config.group_size, options.solver,
                options.preconditioner, options.halo_depth,
                options.ppcg_inner_steps, options.eigen_warmup_iters,
                options.eigen_safety, options.dtype)

    def _setup_for(self, options, n: int):
        """Cache lookup (and eager block-Jacobi build) for this dispatch.

        Returns ``(key, setup, hit)``: ``hit`` is True only when the
        setup came out of the cache (a freshly built factorization is
        this request's miss; the requests behind it get the hits).
        """
        if not self.config.cache_enabled:
            return None, None, False
        if options.solver in ("chebyshev", "ppcg"):
            key = self._cache_key(options, n)
            setup = self.cache.get(key)
            return key, setup, setup is not None
        if options.solver in ("cg", "cg_fused") \
                and options.preconditioner == "block_jacobi" \
                and self.config.group_size == 1:
            key = self._cache_key(options, n)
            setup = self.cache.get(key)
            if setup is not None:
                return key, setup, True
            setup = SolveSetup(
                preconditioner=self._build_preconditioner(options, n))
            self.cache.put(key, setup)
            return key, setup, False
        return None, None, False

    def _build_preconditioner(self, options, n: int):
        from repro.physics import crooked_pipe_system
        from repro.solvers.preconditioners import make_local_preconditioner
        from repro.solvers.ranks import serial_operator
        grid, kxg, kyg, _ = crooked_pipe_system(n)
        op = serial_operator(grid, kxg, kyg,
                             halo=options.required_field_halo)
        return make_local_preconditioner(op, options.preconditioner)

    def _execute(self, pending: _Pending, worker: WorkerGroup) -> None:
        req = pending.req
        outcome = pending.outcome
        outcome.status = "failed"   # provisional; every path below overwrites
        if outcome.start_s < 0:
            outcome.start_s = self.now
        pending.attempts += 1
        outcome.attempts = pending.attempts
        outcome.worker = worker.wid
        pending.last_worker = worker.wid
        worker.breaker.on_dispatch()
        self._journal({"type": "dispatched", "request_id": req.request_id,
                       "attempt": pending.attempts, "worker": worker.wid,
                       "now": self.now})

        if not self._parse(pending):
            exc = pending.parse_error
            self._finish(pending, worker, self.config.overhead_s,
                         status="failed", error=exc)
            return
        options = pending.options
        outcome.solver = options.solver

        # Pressure-based degradation (sticky across retries: a laddered
        # request never un-degrades mid-flight).
        level = self._pressure_level()
        if level > len(pending.degrade_steps):
            options, applied = degrade_for_pressure(options, level)
            pending.options = options
            pending.degrade_steps = pending.degrade_steps + [
                s for s in applied if s not in pending.degrade_steps]
        outcome.solver = options.solver
        outcome.degrade_steps = list(pending.degrade_steps)

        cost = iteration_cost_s(options.solver, req.n)

        # Deadline → iteration budget (pure function of the counter).
        token = CancelToken()
        deadline_abs = None
        if req.deadline_s is not None:
            deadline_abs = req.arrival_s + req.deadline_s
            budget = int((deadline_abs - self.now) / cost)
            if budget <= 0:
                self._finish(pending, worker, self.config.overhead_s,
                             status="deadline_exceeded")
                return
            token = CancelToken(iteration_budget=budget,
                                deadline_s=deadline_abs)
        cancel = token
        if req.cancel_after_s is not None:
            cancel_abs = req.arrival_s + req.cancel_after_s
            cancel_at = int((cancel_abs - self.now) / cost)
            if cancel_at <= 0:
                self._finish(pending, worker, self.config.overhead_s,
                             status="cancelled")
                return
            cancel = ScheduledCancel(token, cancel_at)
        if self.config.stuck_after_s > 0:
            # Liveness allowance in iterations: deterministic on virtual
            # time, so the supervisor never perturbs reproducibility.
            cancel = SupervisedToken(
                cancel, int(self.config.stuck_after_s / cost))

        plan = None
        if req.chaos_trial >= 0:
            # A fatal crash storm hits the *first* attempt; a re-dispatch
            # runs on a fresh world after the storm (still under transient
            # faults), so hedged retries and breaker probes can recover —
            # the ledger's recovery rate measures exactly this.
            plan = random_fault_plan(self.config.chaos_seed, req.chaos_trial,
                                     size=self.config.group_size,
                                     solver=options.solver,
                                     max_attempts=self.config.comm_attempts,
                                     fatal_crash=req.chaos_crash
                                     and pending.attempts == 1)

        key, setup, cache_hit = self._setup_for(options, req.n)
        outcome.cache_hit = cache_hit

        # Exactly-once execution: an attempt whose classified result is
        # already journaled is *replayed*, not re-solved — converged
        # solutions come back out of the durable result store.  A
        # damaged result shard degrades to a deterministic re-solve,
        # digest-checked against the journal below.
        entry = self.replay.attempts.get((req.request_id, pending.attempts)) \
            if self.journal is not None else None
        result = None
        replayed = False
        if entry is not None:
            x = None
            if entry["kind"] == "ok":
                x = (self.results.load(req.request_id, entry["digest"])
                     if self.results is not None else None)
            if entry["kind"] != "ok" or x is not None:
                result = synthesize_result(entry, x)
                replayed = True
                self.replayed_attempts += 1
                self._count("replayed")
        if result is None:
            # The in-flight crash victim (dispatched pre-crash, no
            # attempt record) resumes mid-solve from its durable guard
            # shards — only without a fault plan, whose injection points
            # are op-indexed and must not be shifted by recovery traffic.
            resume: bool | str = False
            ckpt_dir = self._checkpoint_dir_for(pending)
            if ckpt_dir is not None and plan is None \
                    and self.replay.resumable(req.request_id,
                                              pending.attempts):
                resume = "exact"
            with self.tracer.span("request", req.request_id):
                result = worker.execute(options, req.n, plan=plan,
                                        cancel=cancel, setup=setup,
                                        checkpoint_dir=ckpt_dir,
                                        resume=resume)
            if resume == "exact" and result.kind == "ok":
                self.resumed_requests.append(req.request_id)
                self._count("resumed")

        digest = ""
        if result.kind == "ok" and result.report is not None \
                and result.report.x is not None:
            if replayed:
                digest = entry["digest"]
            elif self.results is not None:
                digest = self.results.save(req.request_id, result.report.x)
            elif self.journal is not None:
                digest = solution_digest(result.report.x)
            if entry is not None and not replayed \
                    and digest != entry["digest"]:
                raise JournalError(
                    f"re-solve of journaled request {req.request_id} "
                    f"produced digest {digest[:12]}…, journal holds "
                    f"{entry['digest'][:12]}… — the deterministic "
                    f"replay diverged")
        pending.digest = digest
        if self.journal is not None:
            rep = None
            bounds = None
            if result.report is not None:
                rep = {"retries": result.report.retries,
                       "degraded": bool(result.report.degraded),
                       "virtual_time_s": result.report.virtual_time_s}
                solved = getattr(result.report, "result", None)
                eb = getattr(solved, "eigen_bounds", None)
                if eb:
                    bounds = [float(eb[0]), float(eb[1])]
            self._journal({
                "type": "attempt", "request_id": req.request_id,
                "attempt": pending.attempts, "kind": result.kind,
                "iterations": result.iterations, "report": rep,
                "bounds": bounds, "digest": digest,
                "error_class": result.error_class,
                "error_message": (str(result.error)[:200]
                                  if result.error is not None else "")})

        duration = (self.config.overhead_s + result.iterations * cost
                    + (result.report.virtual_time_s if result.report else 0.0))
        outcome.iterations = result.iterations
        if result.report is not None:
            outcome.retries += result.report.retries

        if result.kind == "ok":
            if key is not None and setup is None \
                    and options.solver in ("chebyshev", "ppcg"):
                self._cache_bounds(key, result.report.result)
            degraded = bool(pending.degrade_steps) \
                or bool(result.report and result.report.degraded)
            status = "degraded" if degraded else "completed"
            self._finish(pending, worker, duration, status=status,
                         report=result.report)
            worker.breaker.record_success()
            return
        if result.kind in ("deadline_exceeded", "cancelled"):
            # The token fired at an iteration boundary, so the charged
            # duration covers exactly the iterations that ran.
            self._finish(pending, worker, duration, status=result.kind,
                         error=result.error)
            worker.breaker.record_success()   # the worker itself is healthy
            return
        if result.kind == "fatal":
            self._finish(pending, worker, duration + self.config.failure_cost_s,
                         status="failed", error=result.error)
            worker.breaker.record_success()   # solve failed, worker fine
            return
        # Retryable-class: comm-level death (crash storm, exhausted
        # retries) or a supervisor-declared stuck dispatch — both count
        # against the breaker and re-dispatch hedged while attempts
        # remain.
        self._count("stuck" if result.kind == "stuck"
                    else "retryable_failures")
        finish_t = self.now + duration + self.config.failure_cost_s
        worker.busy_until = finish_t
        self._push(finish_t, "complete", (worker, None))
        worker.breaker.record_failure(finish_t)
        if worker.breaker.state == "open":
            self._count("breaker.opened")
        if pending.attempts < req.max_attempts:
            backoff = self.config.retry_backoff_s * (2 ** (pending.attempts - 1))
            self._count("redispatches")
            self._push(finish_t + backoff, "retry", pending)
        else:
            outcome.status = "failed"
            outcome.error_class = result.error_class
            outcome.error_message = str(result.error)[:200]
            outcome.finish_s = finish_t
            self._count("failed")
            self._journal({"type": "terminal",
                           "request_id": req.request_id,
                           "status": "failed", "finish_s": finish_t,
                           "key": req.idempotency_key, "digest": "",
                           "solver": outcome.solver})

    def _cache_bounds(self, key, solve_result) -> None:
        bounds = getattr(solve_result, "eigen_bounds", None)
        if not bounds:
            return
        lam_min, lam_max = bounds
        try:
            eb = EigenBounds(lam_min, lam_max)
        except (ConfigurationError, ValueError):
            return   # degenerate estimate: not worth poisoning the cache
        self.cache.put(key, SolveSetup(bounds=eb))

    def _finish(self, pending: _Pending, worker: WorkerGroup,
                duration: float, *, status: str, error=None,
                report=None) -> None:
        outcome = pending.outcome
        finish_t = self.now + duration
        outcome.status = status
        outcome.finish_s = finish_t
        if error is not None:
            outcome.error_class = type(error).__name__
            outcome.error_message = str(error)[:200]
        if report is not None and report.x is not None:
            outcome.x = report.x
        worker.busy_until = finish_t
        self._push(finish_t, "complete", (worker, None))
        self._count(status)
        digest = pending.digest if status in ("completed", "degraded") else ""
        terminal = {"type": "terminal", "request_id": outcome.request_id,
                    "status": status, "finish_s": finish_t,
                    "key": pending.req.idempotency_key, "digest": digest,
                    "solver": outcome.solver}
        self._journal(terminal)
        if digest and pending.req.idempotency_key:
            self._completed_keys.setdefault(
                pending.req.idempotency_key, terminal)

    # -- completion ------------------------------------------------------------

    def _complete(self, worker: WorkerGroup, _payload) -> None:
        if worker.busy_until <= self.now:
            worker.busy_until = 0.0
