"""The request lifecycle (:mod:`repro.service.lifecycle`) driven by hand,
without a clock or a worker, and the one shed only the front has."""

import asyncio

import numpy as np
import pytest

from repro.harness.service_soak import _audit_journal
from repro.physics.deck import CROOKED_PIPE_DECK
from repro.service import (CircuitBreaker, ReplayIndex, RequestJournal,
                           RequestLifecycle, ResultStore, SolveRequest,
                           SolveService, scan_journal)

DECK = CROOKED_PIPE_DECK.format(n=12).replace("use_ppcg", "use_cg")
POISON = "*tea\nuse_cg\ntl_eps=-1\n*endtea\n"
ERROR = ("Boom", "went wrong")
#: case -> (reply kind, settle keywords, terminal status once none is left)
CASES = {
    "ok": ("ok", {}, "completed"),
    "ok-degraded": ("ok", {"degraded": True}, "degraded"),
    "deadline_exceeded": ("deadline_exceeded", {}, "deadline_exceeded"),
    "cancelled": ("cancelled", {}, "cancelled"),
    "deadline-cancel": ("cancelled", {"deadline": True}, "deadline_exceeded"),
    "stuck": ("stuck", {}, "failed"),
    "retryable": ("retryable", {}, "failed"),
    "fatal": ("fatal", {}, "failed"),
    "parse-error": ("", {}, "failed"),
}


@pytest.mark.parametrize("left", [True, False], ids=["left", "none-left"])
@pytest.mark.parametrize("case", list(CASES))
def test_every_reply_kind_settles_as_the_table_says(case, left, tmp_path):
    kind, keywords, status = CASES[case]
    journal = RequestJournal(tmp_path / "wal")
    life = RequestLifecycle(journal, ResultStore(tmp_path / "results"),
                            quota_rate=1.0, quota_burst=5.0)
    breaker = CircuitBreaker(failure_threshold=1)
    x = np.arange(4.0)
    outcome, admitted = life.arrive(
        SolveRequest("r1", "tenant", 1.0, DECK, 12, idempotency_key="k"),
        1.0, backlog=0, limit=4)
    assert admitted and outcome.finish_s < 0
    hedged = left and kind in ("stuck", "retryable")
    if case == "parse-error":
        assert life.parse(outcome, POISON) is None
        digest, error = "", ("ConfigurationError", "eps must be > 0, got -1.0")
    else:
        assert life.parse(outcome, DECK).solver == outcome.solver == "cg"
        life.dispatched(outcome, 0, 2.0)
        digest = life.digest("r1", x if kind == "ok" else None)
        assert hedged == life.settle(outcome, breaker, kind, at=3.0,
                                     retry=left, error=ERROR, **keywords)
        error = ("", "") if kind == "ok" else ERROR
        if hedged:          # the hedge is served: the failure leaves no trace
            life.dispatched(outcome, 1, 3.5)
            digest, status, error = life.digest("r1", x), "completed", ("", "")
            assert not life.settle(outcome, breaker, "ok", at=3.9, retry=False)
    life.terminal(outcome, 4.0, digest)
    served = status in ("completed", "degraded")
    assert (outcome.status, outcome.finish_s) == (status, 4.0)
    assert (outcome.error_class, outcome.error_message) == error
    assert (outcome.attempts, outcome.worker) == \
        ((0, -1) if case == "parse-error" else (2, 1) if hedged else (1, 0))
    assert breaker.state == ("open" if kind in ("stuck", "retryable")
                             and not left else "closed")
    expected = {"service.admitted": 1, f"service.{status}": 1}
    if kind in ("stuck", "retryable"):
        expected["service.stuck" if kind == "stuck"
                 else "service.retryable_failures"] = 1
        expected["service.breaker.opened"] = 1
        if left:
            expected["service.redispatches"] = 1
    assert life.metrics.snapshot()["counters"] == expected

    # the same key again: served from the completion, or admitted afresh
    again, admitted = life.arrive(
        SolveRequest("r2", "tenant", 5.0, DECK, 12, idempotency_key="k"),
        5.0, backlog=0, limit=4)
    assert again.deduplicated == served == (not admitted)
    assert served == (again.x is not None and np.array_equal(again.x, x))

    records = journal.records
    assert _audit_journal(records, {"r1": outcome.to_dict(),
                                    "r2": again.to_dict()}) == []
    index = ReplayIndex.from_records(records)
    assert [index.admissions[r]["type"] for r in ("r1", "r2")] == \
        ["accepted", "dedup" if served else "accepted"]
    assert sorted(index.dispatched) == [("r1", a + 1)
                                        for a in range(outcome.attempts)]
    assert index.terminals["r1"]["status"] == status
    assert ("k" in index.completed_by_key) == served \
        == bool(index.terminals["r1"]["digest"])


def test_front_sheds_an_admitted_request_behind_open_breakers(tmp_path):
    async def scenario():
        with SolveService(workers=1, quota_rate=1e6, quota_burst=1e6,
                          journal=RequestJournal(tmp_path / "wal")) as svc:
            breaker = svc._pool[0].breaker
            for _ in range(breaker.failure_threshold):
                breaker.record_failure(asyncio.get_running_loop().time())
            return await svc.submit(DECK, n=12)

    outcome = asyncio.run(scenario())
    assert (outcome.status, outcome.shed_reason) == ("shed", "breaker_open")
    assert (outcome.attempts, outcome.error_class) == (0, "")
    records = scan_journal(tmp_path / "wal")[0]
    assert [(r["type"], r.get("status")) for r in records] == \
        [("accepted", None), ("terminal", "shed")]
