"""The multi-tenant solve service end to end (repro.service).

Walks both faces of the service:

1. the asyncio front-end — concurrent deck submissions on real time,
   with a wall-clock deadline firing a cooperative cancel, a poison deck
   failing structurally, and a quota shed;
2. cooperative cancellation semantics — a deadline aborts a solve at an
   iteration boundary carrying the exact iteration it fired at, and an
   inert token is bit-transparent;
3. the deterministic virtual-clock engine — a mixed 40-request workload
   under a seeded chaos storm, every request ending in a classified
   terminal status, eigen-bound setups served from the LRU cache;
4. overload-graceful degradation — a saturated queue ladders deep
   matrix-powers CPPCG down before shedding;
5. crash consistency — a journaled engine is killed mid-campaign, a
   fresh engine replays the write-ahead log (acknowledged solves are
   never redone), and a resubmitted idempotency key is served from the
   durable result store across the restart.

Run:  python examples/service_demo.py
"""

import asyncio
import tempfile
from pathlib import Path

from repro.physics.deck import CROOKED_PIPE_DECK
from repro.service import (
    CancelToken,
    DeadlineExceeded,
    RequestJournal,
    ResultStore,
    STATUSES,
    ServiceConfig,
    ServiceEngine,
    SolveRequest,
    SolveService,
)
from repro.solvers import Defences, cg_solve
from repro.testing import crooked_pipe_system, serial_operator
from repro.mesh import Field

CG_DECK = CROOKED_PIPE_DECK.format(n=12).replace("use_ppcg", "use_cg")
PPCG_DECK = CROOKED_PIPE_DECK.format(n=12).replace(
    "*endtea", "tl_eigen_warmup_iters=8\ntl_ppcg_halo_depth=4\n*endtea")


def demo_front_end():
    print("1) asyncio front-end: mixed concurrent outcomes")

    async def scenario():
        # Outcomes that do not depend on how fast this box is: a bucket
        # of five tokens that refills one per 1000 s sheds the sixth
        # submit however long the first five take to start, and a
        # deadline already reached at submit fires at the solve's first
        # iteration boundary however late the worker comes up.
        with SolveService(workers=2, quota_rate=1e-3, quota_burst=5.0) as svc:
            jobs = [svc.submit(CG_DECK, tenant="acme", n=12)
                    for _ in range(3)]
            jobs.append(svc.submit(CG_DECK, tenant="acme", n=12,
                                   deadline_s=0.0))
            jobs.append(svc.submit("*tea\nbogus=1\n*endtea\n",
                                   tenant="acme"))
            jobs.append(svc.submit(CG_DECK, tenant="acme", n=12))
            return await asyncio.gather(*jobs)

    outcomes = asyncio.run(scenario())
    for o in outcomes:
        extra = f" [{o.error_class}]" if o.error_class else ""
        print(f"   {o.request_id} {o.status:<17} "
              f"{o.latency_s * 1e3:7.1f} ms{extra}")
    assert sum(o.status == "completed" for o in outcomes) == 3
    assert outcomes[3].status == "deadline_exceeded"
    assert outcomes[4].status == "failed"
    assert outcomes[5].status == "shed" and outcomes[5].shed_reason == "quota"


def demo_cooperative_cancel():
    print("2) cooperative cancellation at iteration boundaries")
    grid, kxg, kyg, bg = crooked_pipe_system(16)
    op = serial_operator(grid, kxg, kyg)
    b = Field.from_global(op.tile, 1, bg)
    try:
        cg_solve(op, b, eps=1e-12, max_iters=200,
                 defences=Defences(cancel=CancelToken(iteration_budget=5)))
    except DeadlineExceeded as exc:
        print(f"   deadline fired at iteration {exc.iteration} "
              f"(budget 5): {type(exc).__name__}")
        assert exc.iteration == 5
    plain = cg_solve(op, b, eps=1e-10, max_iters=200)
    tokened = cg_solve(op, b, eps=1e-10, max_iters=200,
                       defences=Defences(cancel=CancelToken()))
    assert tokened.iterations == plain.iterations
    print(f"   inert token is bit-transparent "
          f"({plain.iterations} iterations either way)")


def demo_deterministic_engine():
    print("3) virtual-clock engine: 40 mixed requests, chaos on")
    requests = []
    for i in range(40):
        deck = PPCG_DECK if i % 3 == 0 else CG_DECK
        requests.append(SolveRequest(
            request_id=f"req-{i:03d}", tenant=("acme", "beta")[i % 2],
            arrival_s=i * 4e-4, deck_text=deck, n=12,
            deadline_s=2e-4 if i % 11 == 5 else None,
            cancel_after_s=1e-4 if i % 13 == 7 else None,
            chaos_trial=i if i % 5 == 0 else -1, max_attempts=3))
    engine = ServiceEngine(ServiceConfig(workers=2, max_queue=6,
                                         quota_rate=400.0, quota_burst=10.0))
    outcomes = engine.run(requests)
    counts = {s: sum(o.status == s for o in outcomes) for s in STATUSES}
    print("   " + " ".join(f"{s}={c}" for s, c in counts.items() if c))
    stats = engine.cache.stats()
    print(f"   eigen-bound cache: {stats['hits']} hits / "
          f"{stats['misses']} misses")
    assert all(o.status in STATUSES for o in outcomes)
    assert stats["hits"] > 0
    return engine


def demo_degradation():
    print("4) overload degradation: deep CPPCG ladders down under pressure")
    requests = [SolveRequest(request_id=f"req-{i:03d}", tenant="acme",
                             arrival_s=i * 1e-6, deck_text=PPCG_DECK, n=12,
                             max_attempts=2)
                for i in range(6)]
    engine = ServiceEngine(ServiceConfig(
        workers=1, max_queue=6, quota_rate=400.0, quota_burst=10.0))
    outcomes = engine.run(requests)
    degraded = [o for o in outcomes if o.status == "degraded"]
    for o in degraded[:3]:
        print(f"   {o.request_id}: {o.solver} via {o.degrade_steps}")
    assert degraded, [o.status for o in outcomes]


def demo_crash_recovery():
    print("5) crash consistency: journal replay + exactly-once keys")
    import numpy as np

    def make_requests():
        # Arrivals spaced far apart so each solve finishes before the
        # next arrives — the journaled prefix is then independent of how
        # many requests the run was given.
        return [SolveRequest(
            request_id=f"req-{i:03d}", tenant="acme",
            arrival_s=i * 0.5, deck_text=CG_DECK, n=12,
            idempotency_key="golden" if i in (1, 5) else "",
            max_attempts=2) for i in range(6)]

    with tempfile.TemporaryDirectory() as td:
        root = Path(td)

        def engine():
            return ServiceEngine(
                ServiceConfig(workers=2, quota_rate=400.0,
                              quota_burst=10.0),
                journal=RequestJournal(root / "wal"),
                results=ResultStore(root / "results"))

        # "Crash" after four requests: the journal keeps their full
        # lifecycle (the soak harness crashes for real — a SIGKILL mid
        # journal frame; see `make service-soak`).
        crashed = engine()
        before = crashed.run(make_requests()[:4])
        crashed.journal.close()

        survivor = engine()
        outcomes = survivor.run(make_requests())
        survivor.journal.close()
        rec = survivor.recovery_summary()
        print(f"   restarted engine replayed {rec['replayed_attempts']} "
              f"journaled solves, ran the rest live")
        assert rec["replayed_attempts"] == 4        # nothing re-solved
        assert [o.to_dict() for o in before] == \
               [o.to_dict() for o in outcomes[:4]]  # acks unchanged
        dedup = outcomes[5]
        print(f"   {dedup.request_id} reused idempotency key 'golden': "
              f"status={dedup.status} deduplicated={dedup.deduplicated}")
        assert dedup.deduplicated and dedup.status == "completed"
        assert np.array_equal(dedup.x, outcomes[1].x)   # served from store


def main():
    demo_front_end()
    demo_cooperative_cancel()
    demo_deterministic_engine()
    demo_degradation()
    demo_crash_recovery()
    print("service demo: all stages passed")


if __name__ == "__main__":
    main()
