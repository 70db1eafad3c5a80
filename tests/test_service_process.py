"""The asyncio front-end's worker processes (:mod:`repro.service.process`).

What the process boundary must not lose: a killed worker is a
retryable failure the breaker counts and a hedge absorbs; a client
cancel and the stuck watchdog still stop a running solve at an iteration
boundary; two in-flight bearers of one idempotency key solve once; the
served bits do not depend on the parent's BLAS threading; the real
service and the virtual-clock engine agree request by request; nothing
of the service is left in ``os.environ`` or the process table.
"""

from __future__ import annotations

import asyncio
import mmap
import multiprocessing
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.physics.deck import CROOKED_PIPE_DECK
from repro.service import (
    CancelToken,
    RequestJournal,
    ResultStore,
    ServiceConfig,
    ServiceEngine,
    SolveRequest,
    SolveService,
    SupervisedToken,
    WorkerStuck,
    scan_journal,
    solution_digest,
)
from repro.service.process import (SLOT_BYTES, CancelSlot, SlotCancel,
                                   _CANCEL as CANCEL, _TRIP as TRIP)
from repro.utils.errors import Cancelled

POISON_DECK = "*tea\nuse_cg\ntl_eps=-1\n*endtea\n"
OPEN_QUOTA = dict(quota_rate=1e6, quota_burst=1e6)


def _deck(n=12, solver="use_cg", extra=""):
    text = CROOKED_PIPE_DECK.format(n=n).replace("use_ppcg", solver)
    if extra:
        text = text.replace("*endtea", extra + "\n*endtea")
    return text


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


async def _until(condition, timeout_s=20.0):
    """Yield to the loop until ``condition()`` holds."""
    deadline = asyncio.get_running_loop().time() + timeout_s
    while not condition():
        assert asyncio.get_running_loop().time() < deadline, "timed out"
        await asyncio.sleep(0.0005)


# -- the relay's two ends, without a process ---------------------------------------


class TestCancelListener:
    def test_listener_hears_the_first_cancel_only(self):
        token, heard = CancelToken(), []
        token.add_listener(heard.append)
        token.cancel("stop")
        token.cancel("again")
        assert heard == ["stop"] and token.reason == "stop"

    def test_listener_added_after_cancel_fires_at_once(self):
        token, heard = CancelToken(), []
        token.cancel("gone")
        token.add_listener(heard.append)
        assert heard == ["gone"]

    def test_removed_listener_is_silent(self):
        token, heard = CancelToken(), []
        token.add_listener(heard.append)
        token.remove_listener(heard.append)
        token.cancel()
        assert heard == []


class TestCancelSlot:
    """Both ends of the relay over the real shared mapping, in one process."""

    @pytest.fixture
    def ends(self):
        slot = CancelSlot()
        view = mmap.mmap(slot.fileno(), SLOT_BYTES)   # what the worker maps
        token = CancelToken()
        yield slot, token, SlotCancel(SupervisedToken(token), view)
        view.close()
        slot.close()

    def test_empty_slot_is_inert(self, ends):
        slot, token, cancel = ends
        slot.arm()
        for i in range(5):
            cancel.check(i)
            cancel.poll()
        assert not token.cancel_requested

    def test_relayed_cancel_latches_at_the_observing_boundary(self, ends):
        slot, token, cancel = ends
        dispatch = slot.arm()
        cancel.check(3)
        slot.relay(dispatch, CANCEL, "client went away")
        with pytest.raises(Cancelled) as err:
            cancel.check(4)
        assert err.value.iteration == 4 and token.reason == "client went away"

    def test_trip_raises_worker_stuck_and_never_overwrites_a_cancel(self, ends):
        slot, token, cancel = ends
        dispatch = slot.arm()
        slot.relay(dispatch, TRIP, "watchdog")
        with pytest.raises(WorkerStuck, match="watchdog at iteration 2"):
            cancel.check(2)
        slot.relay(dispatch, CANCEL, "client")
        slot.relay(dispatch, TRIP, "late watchdog")
        with pytest.raises(Cancelled, match="client"):
            cancel.poll()

    def test_relay_of_an_earlier_dispatch_writes_nothing(self, ends):
        slot, token, cancel = ends
        stale = slot.arm()
        slot.disarm()
        slot.relay(stale, CANCEL, "stale")
        slot.arm()
        slot.relay(stale, CANCEL, "stale")
        cancel.check(0)
        assert not token.cancel_requested


# -- worker death ------------------------------------------------------------------


class TestWorkerDeath:
    def test_killed_worker_is_hedged_replaced_and_counted(self):
        async def scenario():
            with SolveService(workers=2, **OPEN_QUOTA) as svc:
                victim = svc._pool[0]
                job = asyncio.ensure_future(
                    svc.submit(_deck(96), n=96))
                await _until(lambda: victim.busy)
                killed = victim.pid
                os.kill(killed, signal.SIGKILL)
                first = await job
                failures = victim.breaker._consecutive
                second = await svc.submit(_deck(), n=12)
                pids = [w.pid for w in svc._pool]
            return first, failures, second, killed, pids

        first, failures, second, killed, pids = asyncio.run(scenario())
        assert first.status == "completed" and first.attempts == 2
        assert first.worker == 1 and first.iterations > 0
        # a served answer carries no trace of the attempt it replaced
        assert first.error_class == "" and first.error_message == ""
        assert failures == 1
        assert second.status == "completed" and second.attempts == 1
        assert killed not in pids               # the slot got a new process
        assert not any(_alive(p) for p in pids + [killed])
        assert multiprocessing.active_children() == []

    def test_every_worker_killed_is_a_structured_failure(self):
        async def scenario():
            with SolveService(workers=2, **OPEN_QUOTA) as svc:
                async def reaper():
                    # Replacements die too: younger than one import.
                    while True:
                        for w in svc._pool:
                            try:
                                os.kill(w.pid, signal.SIGKILL)
                            except ProcessLookupError:
                                pass
                        await asyncio.sleep(0.01)

                killing = asyncio.ensure_future(reaper())
                try:
                    return await asyncio.wait_for(
                        svc.submit(_deck(96), n=96), timeout=60)
                finally:
                    killing.cancel()

        outcome = asyncio.run(scenario())
        assert outcome.status == "failed" and outcome.attempts == 2
        assert outcome.error_class == "WorkerDied"
        assert "while it held the dispatch" in outcome.error_message
        assert outcome.finish_s >= outcome.start_s >= 0

    def test_unclassified_worker_error_is_fatal_not_death(self, capfd):
        async def scenario():
            with SolveService(workers=1, **OPEN_QUOTA) as svc:
                pid = svc._pool[0].pid
                bad = await svc.submit(_deck(), n="twelve")
                good = await svc.submit(_deck(), n=12)
                return bad, good, pid == svc._pool[0].pid

        bad, good, same_process = asyncio.run(scenario())
        assert bad.status == "failed" and bad.attempts == 1
        assert bad.error_class and bad.error_class != "WorkerDied"
        assert good.status == "completed" and same_process
        assert "Traceback" in capfd.readouterr().err


# -- cancellation across the boundary ------------------------------------------------


class TestCancellationAcrossTheBoundary:
    def test_client_cancel_stops_a_running_solve(self):
        deck = _deck(192)

        async def scenario():
            with SolveService(workers=1, **OPEN_QUOTA) as svc:
                whole = await svc.submit(deck, n=192)
                token = CancelToken()
                job = asyncio.ensure_future(
                    svc.submit(deck, n=192, cancel=token))
                await _until(lambda: svc._pool[0].busy)
                await asyncio.sleep(0.08)
                token.cancel("client went away")
                return whole, await job

        whole, cut = asyncio.run(scenario())
        assert whole.status == "completed"
        assert cut.status == "cancelled" and cut.error_class == "Cancelled"
        assert "client went away" in cut.error_message
        assert 0 < cut.iterations < whole.iterations

    def test_cancel_before_dispatch_stops_at_the_first_boundary(self):
        async def scenario():
            with SolveService(workers=1, **OPEN_QUOTA) as svc:
                token = CancelToken()
                token.cancel()
                return await svc.submit(_deck(), n=12, cancel=token)

        outcome = asyncio.run(scenario())
        assert outcome.status == "cancelled" and outcome.iterations == 0

    def test_iteration_budget_crosses_the_boundary(self):
        async def scenario():
            with SolveService(workers=1, **OPEN_QUOTA) as svc:
                return await svc.submit(
                    _deck(32), n=32, cancel=CancelToken(iteration_budget=5))

        outcome = asyncio.run(scenario())
        assert outcome.status == "deadline_exceeded"
        assert outcome.iterations == 5

    def test_watchdog_trips_a_long_solve_and_the_request_is_hedged(self):
        async def scenario():
            with SolveService(workers=2, stuck_after_s=0.05,
                              **OPEN_QUOTA) as svc:
                # Cold workers: the allowance must not count their imports.
                quick = await svc.submit(_deck(), n=12)
                assert quick.status == "completed" and quick.attempts == 1
                stuck = await svc.submit(_deck(192), n=192)
                return stuck, [w.breaker._consecutive for w in svc._pool]

        stuck, failures = asyncio.run(scenario())
        assert stuck.status == "failed" and stuck.error_class == "WorkerStuck"
        assert stuck.attempts == 2 and failures == [1, 1]
        assert "watchdog fired" in stuck.error_message
        assert stuck.iterations > 0

    def test_two_rank_worker_group_solves_and_cancels(self):
        async def scenario():
            with SolveService(workers=1, group_size=2, **OPEN_QUOTA) as svc:
                done = await svc.submit(_deck(16), n=16)
                late = await svc.submit(_deck(16), n=16, deadline_s=1e-4)
                return done, late

        done, late = asyncio.run(scenario())
        assert done.status == "completed" and done.iterations > 0
        assert late.status == "deadline_exceeded"


# -- idempotency under concurrency ---------------------------------------------------


class TestConcurrentDuplicates:
    def test_in_flight_duplicate_waits_and_is_served_once(self, tmp_path):
        async def scenario():
            journal = RequestJournal(tmp_path / "wal")
            with SolveService(workers=2, journal=journal,
                              results=ResultStore(tmp_path / "results"),
                              **OPEN_QUOTA) as svc:
                return await asyncio.gather(
                    svc.submit(_deck(32), n=32, idempotency_key="once"),
                    svc.submit(_deck(32), n=32, idempotency_key="once"),
                    svc.submit(_deck(32), n=32, idempotency_key="once"))

        outcomes = asyncio.run(scenario())
        assert [o.status for o in outcomes] == ["completed"] * 3
        assert [o.deduplicated for o in outcomes] == [False, True, True]
        assert all(np.array_equal(o.x, outcomes[0].x) for o in outcomes)
        kinds = [r["type"] for r in scan_journal(tmp_path / "wal")[0]]
        assert kinds.count("dispatched") == 1 and kinds.count("accepted") == 1
        assert kinds.count("dedup") == 2

    def test_duplicate_of_a_failed_bearer_solves_for_itself(self, tmp_path):
        async def scenario():
            journal = RequestJournal(tmp_path / "wal")
            with SolveService(workers=2, journal=journal,
                              **OPEN_QUOTA) as svc:
                return await asyncio.gather(
                    svc.submit(_deck(32), n=32, idempotency_key="k",
                               deadline_s=1e-4),
                    svc.submit(_deck(32), n=32, idempotency_key="k"))

        first, second = asyncio.run(scenario())
        assert first.status == "deadline_exceeded"
        assert second.status == "completed" and not second.deduplicated


# -- the shared scheduler state under contention ---------------------------------------


def test_more_requests_than_workers_than_cores_all_end_terminal(tmp_path):
    """3 workers on (typically) 2 cores, 14 submits at once: nothing lost."""
    async def scenario():
        journal = RequestJournal(tmp_path / "wal")
        with SolveService(workers=3, max_inflight=16, journal=journal,
                          results=ResultStore(tmp_path / "results"),
                          **OPEN_QUOTA) as svc:
            tokens = [CancelToken() for _ in range(3)]
            jobs = [svc.submit(_deck(24), n=24, idempotency_key=f"k{i % 4}")
                    for i in range(8)]
            jobs += [svc.submit(_deck(64), n=64, cancel=t) for t in tokens]
            jobs += [svc.submit(POISON_DECK), svc.submit(_deck(), n=12),
                     svc.submit(_deck(24), n=24, deadline_s=1e-4)]
            running = asyncio.gather(*jobs)
            await asyncio.sleep(0.05)
            for t in tokens:
                t.cancel()
            outcomes = await asyncio.wait_for(running, timeout=120)
            idle = (svc._inflight == 0 and not svc._waiters
                    and not svc._inflight_keys
                    and not any(w.busy for w in svc._pool))
        return outcomes, idle

    outcomes, idle = asyncio.run(scenario())
    assert idle
    keyed = outcomes[:8]
    assert all(o.status == "completed" for o in keyed)
    assert sum(not o.deduplicated for o in keyed) == 4      # one solve a key
    assert {o.status for o in outcomes[8:11]} <= {"cancelled", "completed"}
    assert [o.status for o in outcomes[11:]] == \
        ["failed", "completed", "deadline_exceeded"]


# -- one BLAS thread per worker --------------------------------------------------------

_DIGEST_SCRIPT = """
import asyncio
from repro.physics.deck import CROOKED_PIPE_DECK
from repro.service import SolveService, solution_digest
deck = CROOKED_PIPE_DECK.format(n=128).replace("use_ppcg", "use_cg")
async def main():
    with SolveService(workers=1, quota_rate=1e6, quota_burst=1e6) as svc:
        out = await svc.submit(deck, n=128)
    print(out.status, out.iterations, solution_digest(out.x))
if __name__ == "__main__":
    asyncio.run(main())
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="a 1-core host threads no BLAS call")
def test_served_bits_do_not_depend_on_the_parents_blas_threads():
    """A 128² dot is above OpenBLAS's threading threshold (~10⁴)."""
    served = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        run = subprocess.run([sys.executable, "-c", _DIGEST_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        served.append(run.stdout.split())
    assert served[0][0] == "completed"
    assert served[0] == served[1]


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                    reason="needs Linux /proc")
def test_worker_has_no_blas_pool_thread():
    """After serving a 128² CG (16 384-element dots) the worker is one thread."""
    async def scenario():
        with SolveService(workers=1, **OPEN_QUOTA) as svc:
            outcome = await svc.submit(_deck(128), n=128)
            tasks = os.listdir(f"/proc/{svc._pool[0].pid}/task")
        return outcome, tasks

    outcome, tasks = asyncio.run(scenario())
    assert outcome.status == "completed"
    assert len(tasks) == 1


def test_closing_a_cold_service_is_silent(capfd):
    """Workers closed mid-import have nobody to say ``ready`` to."""
    with SolveService(workers=2, **OPEN_QUOTA) as svc:
        pids = [w.pid for w in svc._pool]
    assert "Traceback" not in capfd.readouterr().err
    assert not any(_alive(p) for p in pids)
    assert multiprocessing.active_children() == []


def test_service_leaves_environment_and_process_table_as_found():
    before = dict(os.environ)

    async def scenario():
        with SolveService(workers=2, **OPEN_QUOTA) as svc:
            await svc.submit(_deck(), n=12)
            return [w.pid for w in svc._pool]

    pids = asyncio.run(scenario())
    assert dict(os.environ) == before
    assert not any(_alive(p) for p in pids)
    assert multiprocessing.active_children() == []


# -- ROADMAP 4c: the two surfaces agree ------------------------------------------------


def test_real_service_and_virtual_engine_agree_request_by_request(tmp_path):
    """One seeded stream through ``SolveService`` and ``ServiceEngine``:
    same terminal statuses, iteration counts and solution digests."""
    rng = np.random.default_rng(20170905)
    decks = [("use_cg", ""), ("use_ppcg", ""),
             ("use_ppcg", "tl_ppcg_halo_depth=4")]
    stream = []
    for i in range(10):
        n = int(rng.choice([12, 16, 24, 32]))
        solver, extra = decks[int(rng.integers(len(decks)))]
        stream.append((_deck(n, solver, extra), n, f"key-{i}"))
    stream.insert(4, (POISON_DECK, 12, "poison"))
    stream.append(stream[2])                    # a key that already completed

    async def real():
        with SolveService(workers=2, **OPEN_QUOTA,
                          journal=RequestJournal(tmp_path / "real-wal"),
                          results=ResultStore(tmp_path / "real-results")) as svc:
            return [await svc.submit(deck, n=n, idempotency_key=key)
                    for deck, n, key in stream]

    engine = ServiceEngine(
        ServiceConfig(workers=2, quota_rate=1e6, quota_burst=1e6,
                      degrade_enabled=False),
        journal=RequestJournal(tmp_path / "virtual-wal"),
        results=ResultStore(tmp_path / "virtual-results"))
    virtual = engine.run([
        SolveRequest(request_id=f"req-{i:05d}", tenant="default",
                     arrival_s=float(i), deck_text=deck, n=n,
                     idempotency_key=key)
        for i, (deck, n, key) in enumerate(stream, start=1)])
    engine.journal.close()

    def facts(outcomes):
        return [(o.request_id, o.status, o.deduplicated, o.error_class,
                 o.iterations,
                 solution_digest(o.x) if o.x is not None else "")
                for o in outcomes]

    served = facts(asyncio.run(real()))
    assert served == facts(virtual)
    assert [f[1] for f in served].count("completed") == 11
    assert served[4][1:4] == ("failed", False, "ConfigurationError")
    assert served[-1][2] and served[-1][5] == served[2][5]
