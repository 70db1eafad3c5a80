"""Tests for the multi-tenant solve service (:mod:`repro.service`).

Covers the admission/backpressure parts (token buckets, bounded queue),
the circuit breaker state machine, the LRU setup cache (including
corruption-safe invalidation), the degradation ladder, the deterministic
engine's outcome classification, and the asyncio front-end.
"""

from __future__ import annotations

import asyncio
import dataclasses

import pytest

from repro.physics.deck import CROOKED_PIPE_DECK
from repro.service import (
    CircuitBreaker,
    ServiceConfig,
    ServiceEngine,
    SetupCache,
    SolveRequest,
    SolveService,
    TokenBucket,
    WorkerGroup,
    degrade_for_pressure,
    fingerprint,
)
from repro.solvers import SolverOptions
from repro.solvers.driver import SolveSetup


def _deck(n=12, solver="use_cg", extra=""):
    text = CROOKED_PIPE_DECK.format(n=n).replace("use_ppcg", solver)
    if extra:
        text = text.replace("*endtea", extra + "\n*endtea")
    return text


# -- admission control ---------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=10.0, burst=2.0)
        assert bucket.try_acquire(0.0)
        assert bucket.try_acquire(0.0)
        assert not bucket.try_acquire(0.0)      # burst exhausted
        assert not bucket.try_acquire(0.05)     # half a token back: still no
        assert bucket.try_acquire(0.1)          # one token refilled
        assert bucket.granted == 3 and bucket.rejected == 2

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=100.0, burst=3.0)
        for _ in range(3):
            assert bucket.try_acquire(1000.0)
        assert not bucket.try_acquire(1000.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.0)


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        b = CircuitBreaker(failure_threshold=3, cooldown_s=1.0)
        for t in (0.0, 0.1, 0.2):
            assert b.allow(t)
            b.record_failure(t)
        assert b.state == "open" and b.opened == 1
        assert not b.allow(0.5)

    def test_success_resets_consecutive_count(self):
        b = CircuitBreaker(failure_threshold=2, cooldown_s=1.0)
        b.record_failure(0.0)
        b.record_success()
        b.record_failure(0.1)
        assert b.state == "closed"

    def test_half_open_probe_then_reclose(self):
        b = CircuitBreaker(failure_threshold=1, cooldown_s=1.0)
        b.record_failure(0.0)
        assert b.state == "open"
        assert b.allow(1.5)                     # cooldown elapsed: probe
        assert b.state == "half_open"
        b.on_dispatch()
        assert not b.allow(1.6)                 # single probe in flight
        b.record_success()
        assert b.state == "closed" and b.reclosed == 1

    def test_failed_probe_reopens(self):
        b = CircuitBreaker(failure_threshold=1, cooldown_s=1.0)
        b.record_failure(0.0)
        assert b.allow(1.5)
        b.on_dispatch()
        b.record_failure(1.6)
        assert b.state == "open" and b.opened == 2


# -- setup cache ---------------------------------------------------------------


class TestSetupCache:
    def _setup(self, lo=1.0, hi=5.0):
        from repro.solvers.eigen import EigenBounds
        return SolveSetup(bounds=EigenBounds(lo, hi))

    def test_hit_miss_and_lru_eviction(self):
        cache = SetupCache(max_entries=2)
        assert cache.get("a") is None
        cache.put("a", self._setup())
        cache.put("b", self._setup())
        assert cache.get("a") is not None       # refreshes a's recency
        cache.put("c", self._setup())           # evicts b (LRU)
        assert cache.get("b") is None
        assert cache.get("a") is not None and cache.get("c") is not None
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["hits"] == 3 and stats["misses"] == 2

    def test_corruption_detected_and_invalidated(self):
        """A cached entry mutated behind the cache's back fails its
        fingerprint check: the entry is dropped (a miss, counted as
        corruption), never served."""
        cache = SetupCache(max_entries=4)
        setup = self._setup()
        cache.put("k", setup)
        assert cache.get("k") is setup
        object.__setattr__(setup.bounds, "lam_max", 99.0)  # corrupt in place
        assert cache.get("k") is None
        assert cache.stats()["corruptions"] == 1
        assert cache.get("k") is None           # gone for good

    def test_invalidate(self):
        cache = SetupCache()
        cache.put("k", self._setup())
        cache.invalidate("k")
        assert cache.get("k") is None

    def test_fingerprint_distinguishes_values(self):
        assert fingerprint(self._setup()) != fingerprint(self._setup(hi=6.0))
        assert fingerprint(self._setup()) == fingerprint(self._setup())


# -- degradation ladder --------------------------------------------------------


class TestDegradeLadder:
    def test_depth_then_solver(self):
        opts = SolverOptions(solver="ppcg", halo_depth=4)
        d1, steps = degrade_for_pressure(opts, 1)
        assert steps == ["depth1"] and d1.halo_depth == 1
        assert d1.solver == "ppcg"
        d2, steps = degrade_for_pressure(opts, 2)
        assert steps == ["depth1", "cg"] and d2.solver == "cg"
        d3, steps = degrade_for_pressure(opts, 3)
        assert steps == ["depth1", "cg"] and d3 == d2

    def test_rungs_skip_when_not_applicable(self):
        opts = SolverOptions(solver="cg")
        same, steps = degrade_for_pressure(opts, 3)
        assert steps == [] and same == opts

    def test_level_zero_is_identity(self):
        opts = SolverOptions(solver="ppcg", halo_depth=4)
        out, steps = degrade_for_pressure(opts, 0)
        assert out is opts and steps == []


# -- deterministic engine ------------------------------------------------------


def _req(i, deck, *, arrival=None, **kw):
    return SolveRequest(request_id=f"r{i:03d}", tenant=kw.pop("tenant", "t"),
                        arrival_s=arrival if arrival is not None else i * 0.1,
                        deck_text=deck, n=kw.pop("n", 12), **kw)


class TestServiceEngine:
    CFG = ServiceConfig(workers=2, group_size=1, max_queue=4,
                        quota_rate=100.0, quota_burst=50.0)

    def test_mixed_classification(self):
        reqs = [
            _req(0, _deck()),
            _req(1, _deck(), deadline_s=1e-5),          # too tight
            _req(2, _deck(), cancel_after_s=1e-4),      # client cancel
            _req(3, "*tea\nbogus=1\n*endtea\n"),        # poison
            _req(4, _deck()),
        ]
        outcomes = ServiceEngine(self.CFG).run(reqs)
        by_id = {o.request_id: o for o in outcomes}
        assert by_id["r000"].status == "completed"
        assert by_id["r001"].status == "deadline_exceeded"
        assert by_id["r002"].status == "cancelled"
        assert by_id["r003"].status == "failed"
        assert by_id["r003"].error_class == "ConfigurationError"
        assert by_id["r004"].status == "completed"
        assert by_id["r000"].iterations > 0
        assert by_id["r000"].x is not None

    def test_recovery_deck_fails_as_configuration_error(self, tmp_path):
        """Rank-loss recovery writes shards to the deck's own
        ``tl_checkpoint_dir``: a request asking for it is refused, and the
        directory it names stays untouched."""
        ckdir = tmp_path / "client-named"
        deck = _deck(extra=f"tl_enable_recovery\ntl_checkpoint_interval=5\n"
                           f"tl_checkpoint_dir={ckdir}")
        (outcome,) = ServiceEngine(self.CFG).run([_req(0, deck)])
        assert outcome.status == "failed"
        assert outcome.error_class == "ConfigurationError"
        assert "tl_enable_recovery" in outcome.error_message
        assert not ckdir.exists()

    def test_quota_sheds_heavy_hitter_only(self):
        cfg = dataclasses.replace(self.CFG, quota_rate=10.0, quota_burst=2.0)
        reqs = [_req(i, _deck(), tenant="hog", arrival=i * 1e-4)
                for i in range(5)]
        reqs.append(_req(9, _deck(), tenant="quiet", arrival=4e-4))
        outcomes = ServiceEngine(cfg).run(reqs)
        hog = [o for o in outcomes if o.tenant == "hog"]
        assert sum(o.status == "shed" for o in hog) == 3
        assert all(o.shed_reason == "quota"
                   for o in hog if o.status == "shed")
        (quiet,) = [o for o in outcomes if o.tenant == "quiet"]
        assert quiet.status == "completed"

    def test_queue_overflow_sheds(self):
        cfg = dataclasses.replace(self.CFG, max_queue=2, workers=1)
        reqs = [_req(i, _deck(n=16), arrival=i * 1e-6) for i in range(8)]
        outcomes = ServiceEngine(cfg).run(reqs)
        shed = [o for o in outcomes if o.status == "shed"]
        assert shed and all(o.shed_reason == "queue_full" for o in shed)
        assert any(o.status == "completed" for o in outcomes)

    def test_pressure_degrades_ppcg_and_marks_outcome(self):
        cfg = dataclasses.replace(self.CFG, workers=1, max_queue=6,
                                  degrade_low=0.25, degrade_high=0.5)
        deck = _deck(solver="use_ppcg", extra="tl_eigen_warmup_iters=8\n"
                     "tl_ppcg_halo_depth=4")
        reqs = [_req(i, deck, arrival=i * 1e-6) for i in range(6)]
        outcomes = ServiceEngine(cfg).run(reqs)
        degraded = [o for o in outcomes if o.status == "degraded"]
        assert degraded, [o.status for o in outcomes]
        assert any("depth1" in o.degrade_steps or "cg" in o.degrade_steps
                   for o in degraded)

    def test_degrade_disabled_never_ladders(self):
        cfg = dataclasses.replace(self.CFG, workers=1, max_queue=6,
                                  degrade_enabled=False,
                                  degrade_low=0.25, degrade_high=0.5)
        deck = _deck(solver="use_ppcg", extra="tl_eigen_warmup_iters=8\n"
                     "tl_ppcg_halo_depth=4")
        reqs = [_req(i, deck, arrival=i * 1e-6) for i in range(6)]
        outcomes = ServiceEngine(cfg).run(reqs)
        assert all(not o.degrade_steps for o in outcomes)

    def test_eigen_bounds_cached_across_requests(self):
        deck = _deck(solver="use_ppcg", extra="tl_eigen_warmup_iters=8")
        reqs = [_req(i, deck) for i in range(4)]
        engine = ServiceEngine(self.CFG)
        outcomes = engine.run(reqs)
        assert [o.cache_hit for o in sorted(outcomes,
                                            key=lambda o: o.request_id)] == \
            [False, True, True, True]
        stats = engine.cache.stats()
        assert stats["misses"] == 1 and stats["hits"] == 3

    def test_cache_disabled_never_hits(self):
        cfg = dataclasses.replace(self.CFG, cache_enabled=False)
        deck = _deck(solver="use_ppcg", extra="tl_eigen_warmup_iters=8")
        engine = ServiceEngine(cfg)
        outcomes = engine.run([_req(i, deck) for i in range(3)])
        assert all(not o.cache_hit for o in outcomes)

    def test_retryable_failure_redispatches_to_other_worker(self):
        """A retryable worker failure (crash / exhausted comm budget)
        re-dispatches with backoff, hedged away from the failed worker,
        and the retry completes."""
        from repro.service.worker import ExecutionResult
        from repro.utils.errors import CommunicationError

        engine = ServiceEngine(self.CFG)
        engine.workers[0].execute = \
            lambda *a, **kw: ExecutionResult(
                kind="retryable", error=CommunicationError("rank 1 died"))
        (outcome,) = engine.run([_req(0, _deck(), max_attempts=3)])
        assert outcome.status == "completed"
        assert outcome.attempts == 2
        assert outcome.worker == 1              # hedged off worker 0

    def test_retry_exhaustion_is_structured_failure(self):
        from repro.service.worker import ExecutionResult
        from repro.utils.errors import CommunicationError

        cfg = dataclasses.replace(self.CFG, workers=1)
        engine = ServiceEngine(cfg)
        engine.workers[0].execute = \
            lambda *a, **kw: ExecutionResult(
                kind="retryable", error=CommunicationError("rank 1 died"))
        (outcome,) = engine.run([_req(0, _deck(), max_attempts=2)])
        assert outcome.status == "failed"
        assert outcome.attempts == 2
        assert outcome.error_class == "CommunicationError"

    def test_breaker_opens_after_repeated_worker_failures(self):
        from repro.service.worker import ExecutionResult
        from repro.utils.errors import CommunicationError

        cfg = dataclasses.replace(self.CFG, workers=2, breaker_threshold=2)
        engine = ServiceEngine(cfg)
        engine.workers[0].execute = \
            lambda *a, **kw: ExecutionResult(
                kind="retryable", error=CommunicationError("flaky"))
        outcomes = engine.run([_req(i, _deck(), max_attempts=3)
                               for i in range(6)])
        assert engine.workers[0].breaker.opened >= 1
        assert all(o.status == "completed" for o in outcomes)

    def test_same_seed_runs_identical(self):
        reqs = [_req(i, _deck(), chaos_trial=i if i % 3 == 0 else -1)
                for i in range(12)]
        a = [o.to_dict() for o in ServiceEngine(self.CFG).run(reqs)]
        b = [o.to_dict() for o in ServiceEngine(self.CFG).run(reqs)]
        assert a == b


# -- worker groups -------------------------------------------------------------


class TestWorkerGroup:
    def test_ok_execution_carries_report(self):
        worker = WorkerGroup(0)
        result = worker.execute(SolverOptions(solver="cg"), 12)
        assert result.kind == "ok" and result.report.converged
        assert result.iterations > 0

    def test_fatal_configuration_is_classified(self):
        worker = WorkerGroup(0)
        result = worker.execute(
            SolverOptions(solver="chebyshev", eigen_warmup_iters=2,
                          max_iters=3), 12)
        assert result.kind in ("fatal", "ok")   # tiny budget: honest fatal
        if result.kind == "fatal":
            assert result.error_class


# -- asyncio front-end ---------------------------------------------------------


class TestSolveServiceFront:
    def test_concurrent_mixed_outcomes(self):
        async def scenario():
            with SolveService(workers=2, quota_rate=100.0,
                              quota_burst=50.0) as svc:
                jobs = [svc.submit(_deck(), tenant="a", n=12)
                        for _ in range(3)]
                jobs.append(svc.submit(_deck(), tenant="a", n=12,
                                       deadline_s=1e-4))
                jobs.append(svc.submit("*tea\nbogus=1\n*endtea\n",
                                       tenant="a"))
                return await asyncio.gather(*jobs)

        outcomes = asyncio.run(scenario())
        statuses = [o.status for o in outcomes]
        assert statuses.count("completed") == 3
        assert statuses[3] == "deadline_exceeded"
        assert statuses[4] == "failed"
        assert outcomes[4].error_class == "ConfigurationError"

    def test_quota_shed_is_structured(self):
        async def scenario():
            with SolveService(workers=1, quota_rate=1.0,
                              quota_burst=1.0) as svc:
                first = await svc.submit(_deck(), tenant="t", n=12)
                second = await svc.submit(_deck(), tenant="t", n=12)
                return first, second

        first, second = asyncio.run(scenario())
        assert first.status in ("completed", "degraded")
        assert second.status == "shed" and second.shed_reason == "quota"


class TestBreakerHalfOpenRace:
    """Regression: two threads passing the half-open gate concurrently.

    Historically ``allow()`` then ``on_dispatch()`` was check-then-act,
    so two pool threads could both claim the single half-open probe and
    stampede a recovering worker.  ``on_dispatch(now)`` is now the
    atomic admit-and-claim; exactly one concurrent dispatcher may win.
    """

    def _half_open_breaker(self):
        b = CircuitBreaker(failure_threshold=1, cooldown_s=1.0)
        b.record_failure(0.0)
        assert b.state == "open"
        return b

    def test_exactly_one_probe_under_contention(self):
        import threading

        for trial in range(20):
            b = self._half_open_breaker()
            nthreads = 8
            barrier = threading.Barrier(nthreads)
            wins = []

            def dispatcher():
                barrier.wait()          # maximize the collision window
                if b.on_dispatch(2.0):  # past cooldown: half-open
                    wins.append(threading.get_ident())

            threads = [threading.Thread(target=dispatcher)
                       for _ in range(nthreads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(wins) == 1, f"trial {trial}: {len(wins)} probes won"
            assert b.state == "half_open"

    def test_probe_slot_released_on_outcome(self):
        b = self._half_open_breaker()
        assert b.on_dispatch(2.0)
        assert not b.on_dispatch(2.0)       # slot held
        b.record_success()
        assert b.state == "closed" and b.reclosed == 1
        b2 = self._half_open_breaker()
        assert b2.on_dispatch(2.0)
        b2.record_failure(2.1)              # probe failed: re-open
        assert b2.state == "open" and b2.opened == 2
        assert not b2.on_dispatch(2.5)      # still cooling down

    def test_allow_is_a_pure_query(self):
        b = self._half_open_breaker()
        assert b.allow(2.0) and b.allow(2.0)    # no claim, repeatable
        assert b.on_dispatch()                  # legacy no-arg claim
        assert not b.allow(2.0)                 # probe now held
