"""Deterministic multi-tenant solve engine: the virtual-clock driver of
:class:`~repro.service.lifecycle.RequestLifecycle`.

The engine is a discrete-event scheduler over **virtual time**: requests
arrive at seeded virtual timestamps, go through the lifecycle's steps
(admission, parse, dispatch bookkeeping, digest, reply classification,
the terminal record), and a pool of
:class:`~repro.service.worker.WorkerGroup` slots executes the solves —
**real** SPMD solves, run synchronously in event order, whose *virtual*
duration is charged from a per-iteration cost model plus the resilient
stack's injected latency.  Because no wall clock is consulted anywhere,
two same-seed runs produce byte-identical outcome ledgers — which is how
the service sweep pins hundreds of mixed chaos requests in CI.

What is this driver's own:

- **deadlines, client cancels, the stuck allowance** — converted up
  front into iteration counts on a
  :class:`~repro.service.cancel.CancelToken` stack, so expiry is a pure
  function of the iteration counter and rank-coherent;
- **the event heap** — a bounded queue in front of the workers, hedged
  re-dispatch with backoff preferring a *different* worker, and a wake
  at the earliest breaker cooldown when every worker is refused;
- **graceful degradation** — queue-pressure watermarks ladder options
  down (:mod:`repro.service.degrade`);
- **setup caching** — eigenvalue bounds / block-Jacobi factorizations
  reused across requests (:mod:`repro.service.cache`);
- **per-request fault plans**, and **recovery**: journaled attempts are
  replayed, not re-solved, and the in-flight crash victim resumes
  mid-solve (``resume="exact"``).

Every request terminates in exactly one
:data:`~repro.service.requests.STATUSES` — the engine has no
"unclassified" exit path.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from pathlib import Path

from repro.observe.metrics import MetricsRegistry
from repro.resilience.chaos import random_fault_plan
from repro.service.cancel import CancelToken, ScheduledCancel
from repro.service.cache import SetupCache
from repro.service.degrade import degrade_for_pressure
from repro.service.lifecycle import RequestLifecycle
from repro.service.recovery import synthesize_result
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
    #: Liveness allowance: a dispatch running longer than this
    #: (virtual seconds, converted to an iteration allowance up front) is
    #: declared stuck, cancelled via :class:`WorkerStuck` and
    #: re-dispatched under the breaker/hedging machinery.  0 disables.
    stuck_after_s: float = 0.0


@dataclass
class _Pending:
    """One admitted request's mutable dispatch state."""

    req: SolveRequest
    outcome: RequestOutcome
    options: object = None          #: parsed SolverOptions (lazy)


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
        #: the steps both service drivers share, and their single-writer
        #: state (journal, result store, quotas, completed keys, counters)
        self.life = RequestLifecycle(
            journal, results, quota_rate=self.config.quota_rate,
            quota_burst=self.config.quota_burst, metrics=self.metrics)
        self.replay = self.life.replay
        self.replayed_attempts = 0
        self.resumed_requests: list[str] = []
        self.deduplicated = 0

    # -- event plumbing --------------------------------------------------------

    def _push(self, when: float, kind: str, payload) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (when, self._seq, kind, payload))

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
                self._complete(payload)
            elif kind == "retry":
                self._queue.append(payload)
            self._dispatch()
        return [self._outcomes[r.request_id] for r in ordered]

    # -- admission -------------------------------------------------------------

    def _admit(self, req: SolveRequest) -> None:
        outcome, admitted = self.life.arrive(
            req, self.now, len(self._queue), self.config.max_queue,
            journaled=self.replay.admissions.get(req.request_id))
        self._outcomes[req.request_id] = outcome
        self.deduplicated += outcome.deduplicated
        if admitted:
            self._queue.append(_Pending(req=req, outcome=outcome))

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
            worker = self._pick_worker(avoid=self._queue[0].outcome.worker)
            if worker is None:
                return
            pending = self._queue.pop(0)
            self._execute(pending, worker)

    def _execute(self, pending: _Pending, worker: WorkerGroup) -> None:
        """One dispatch of ``pending`` on ``worker``, start to verdict."""
        req, outcome = pending.req, pending.outcome
        worker.breaker.on_dispatch()
        self.life.dispatched(outcome, worker.wid, self.now)
        turnaround = self.now + self.config.overhead_s
        if pending.options is None:     # parsed here, at dispatch: see parse()
            pending.options = self.life.parse(
                outcome, req.deck_text,
                managed_checkpoints=self.checkpoint_root is not None)
            if pending.options is None:
                return self._finish(outcome, worker, turnaround)
        options = self._degrade(pending)
        cost = iteration_cost_s(options.solver, req.n)
        cancel, expired = self._cancel_for(req, cost)
        if expired:
            outcome.status = expired
            return self._finish(outcome, worker, turnaround)
        key, setup, outcome.cache_hit = self._setup_for(options, req.n)
        result, entry, replayed = self._attempt(pending, worker, cancel, setup)
        digest = self._digest(req, result, entry, replayed)
        self._journal_attempt(outcome, result, digest)

        duration = (self.config.overhead_s + result.iterations * cost
                    + (result.report.virtual_time_s if result.report else 0.0))
        # A failed attempt costs ``failure_cost_s`` more.  The two sums
        # associate differently, and SERVICE_9.json pins their bits.
        if result.kind == "fatal":
            duration += self.config.failure_cost_s
        finish_t = self.now + duration
        if result.kind in ("stuck", "retryable"):
            finish_t += self.config.failure_cost_s
        outcome.iterations = result.iterations
        if result.report is not None:
            outcome.retries += result.report.retries
        if result.kind == "ok":
            outcome.x = result.report.x
            if key is not None and setup is None \
                    and options.solver in ("chebyshev", "ppcg"):
                self._cache_bounds(key, result.report.result)
        again = self.life.settle(
            outcome, worker.breaker, result.kind, at=finish_t,
            retry=outcome.attempts < req.max_attempts,
            error=(result.error_class, result.error_message),
            degraded=bool(outcome.degrade_steps)
            or bool(result.report and result.report.degraded))
        if again:
            self._occupy(worker, finish_t)
            backoff = self.config.retry_backoff_s * (2 ** (outcome.attempts - 1))
            self._push(finish_t + backoff, "retry", pending)
        else:
            self._finish(outcome, worker, finish_t, digest)

    def _degrade(self, pending: _Pending):
        """Ladder the options down under queue pressure (sticky across
        retries: a laddered request never un-degrades mid-flight)."""
        outcome = pending.outcome
        level = self._pressure_level()
        if level > len(outcome.degrade_steps):
            pending.options, applied = degrade_for_pressure(
                pending.options, level)
            outcome.degrade_steps += [
                s for s in applied if s not in outcome.degrade_steps]
        outcome.solver = pending.options.solver
        return pending.options

    def _cancel_for(self, req: SolveRequest, cost: float):
        """``(token, "")`` for this dispatch, or ``(None, status)`` when
        the request's deadline or cancel time has already passed.

        Deadline, client cancel and the stuck allowance all become
        iteration counts — pure functions of the counter, so expiry is
        rank-coherent and the supervisor never perturbs reproducibility.
        """
        token = CancelToken()
        if req.deadline_s is not None:
            deadline_abs = req.arrival_s + req.deadline_s
            budget = int((deadline_abs - self.now) / cost)
            if budget <= 0:
                return None, "deadline_exceeded"
            token = CancelToken(iteration_budget=budget,
                                deadline_s=deadline_abs)
        cancel = token
        if req.cancel_after_s is not None:
            cancel_abs = req.arrival_s + req.cancel_after_s
            cancel_at = int((cancel_abs - self.now) / cost)
            if cancel_at <= 0:
                return None, "cancelled"
            cancel = ScheduledCancel(token, cancel_at)
        if self.config.stuck_after_s > 0:
            cancel = SupervisedToken(
                cancel, int(self.config.stuck_after_s / cost))
        return cancel, ""

    def _checkpoint_dir_for(self, pending: _Pending):
        """Per-request durable solver-shard directory (or ``None``)."""
        if self.checkpoint_root is None \
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

    def _attempt(self, pending: _Pending, worker: WorkerGroup, cancel, setup):
        """Run — or replay — this dispatch's solve.

        Returns ``(result, entry, replayed)``: ``entry`` is the journaled
        ``attempt`` record of this dispatch, if one survives.  Exactly-once
        execution: an attempt whose classified result is already
        journaled is *replayed*, not re-solved — converged solutions come
        back out of the durable result store.  A damaged result shard
        degrades to a deterministic re-solve, digest-checked against the
        journal by :meth:`_digest`.
        """
        req, attempt = pending.req, pending.outcome.attempts
        entry = self.replay.attempts.get((req.request_id, attempt)) \
            if self.journal is not None else None
        if entry is not None:
            x = None
            if entry["kind"] == "ok" and self.results is not None:
                x = self.results.load(req.request_id, entry["digest"])
            if entry["kind"] != "ok" or x is not None:
                self.replayed_attempts += 1
                self.life.count("replayed")
                return synthesize_result(entry, x), entry, True
        plan = None
        if req.chaos_trial >= 0:
            # A fatal crash storm hits the *first* attempt; a re-dispatch
            # runs on a fresh world after the storm (still under transient
            # faults), so hedged retries and breaker probes can recover —
            # the ledger's recovery rate measures exactly this.
            plan = random_fault_plan(self.config.chaos_seed, req.chaos_trial,
                                     size=self.config.group_size,
                                     solver=pending.options.solver,
                                     max_attempts=self.config.comm_attempts,
                                     fatal_crash=req.chaos_crash
                                     and attempt == 1)
        # The in-flight crash victim (dispatched pre-crash, no attempt
        # record) resumes mid-solve from its durable guard shards — only
        # without a fault plan, whose injection points are op-indexed and
        # must not be shifted by recovery traffic.
        resume: bool | str = False
        ckpt_dir = self._checkpoint_dir_for(pending)
        if ckpt_dir is not None and plan is None \
                and self.replay.resumable(req.request_id, attempt):
            resume = "exact"
        with self.tracer.span("request", req.request_id):
            result = worker.execute(pending.options, req.n, plan=plan,
                                    cancel=cancel, setup=setup,
                                    checkpoint_dir=ckpt_dir, resume=resume)
        if resume == "exact" and result.kind == "ok":
            self.resumed_requests.append(req.request_id)
            self.life.count("resumed")
        return result, entry, False

    def _digest(self, req: SolveRequest, result, entry, replayed: bool) -> str:
        """The served solution's digest (``""`` if none was served)."""
        if result.kind != "ok" or result.report is None \
                or result.report.x is None:
            return ""
        if replayed:
            return entry["digest"]
        digest = self.life.digest(req.request_id, result.report.x)
        if entry is not None and digest != entry["digest"]:
            raise JournalError(
                f"re-solve of journaled request {req.request_id} "
                f"produced digest {digest[:12]}…, journal holds "
                f"{entry['digest'][:12]}… — the deterministic "
                f"replay diverged")
        return digest

    def _journal_attempt(self, outcome: RequestOutcome, result,
                         digest: str) -> None:
        """The classified result, durable before the engine acts on it."""
        if self.journal is None:
            return
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
        self.life.record({
            "type": "attempt", "request_id": outcome.request_id,
            "attempt": outcome.attempts, "kind": result.kind,
            "iterations": result.iterations, "report": rep,
            "bounds": bounds, "digest": digest,
            "error_class": result.error_class,
            "error_message": result.error_message})

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

    # -- completion ------------------------------------------------------------

    def _occupy(self, worker: WorkerGroup, until: float) -> None:
        worker.busy_until = until
        self._push(until, "complete", worker)

    def _finish(self, outcome: RequestOutcome, worker: WorkerGroup,
                finish_t: float, digest: str = "") -> None:
        self._occupy(worker, finish_t)
        self.life.terminal(outcome, finish_t, digest)

    def _complete(self, worker: WorkerGroup) -> None:
        if worker.busy_until <= self.now:
            worker.busy_until = 0.0
