"""The ladder: isolated calls into one layer at a time, medians of many.

Where the proxies of the traced run say how much time a layer took
inside a real op, these rungs say what one call into the layer costs
with nothing else going on, on arrays of the workload's own size.  Rungs
that are differences (an overhead = with − without) interleave the two
sides call by call, so slow drift of the machine cancels.
"""

from __future__ import annotations

import asyncio
import inspect
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.comm import InstrumentedComm, SerialComm, launch_spmd
from repro.mesh import Field, HaloExchanger, decompose
from repro.physics.deck import (CROOKED_PIPE_DECK, deck_solver_options,
                                parse_deck_text)
from repro.resilience import (ChecksumComm, FaultPlan, FaultyComm,
                              RetryingComm, build_resilient_comm,
                              run_resilient)
from repro.service import (RequestJournal, ResultStore, SolveService,
                           WorkerGroup)
from repro.kernels import KERNEL_STREAMS
from repro.solvers import SolverOptions, StencilOperator2D, solve_linear
from repro.testing import crooked_pipe_system
from repro.utils.events import EventLog

from perfbench.spec import median

#: samples per rung (the self-test's quick mode takes fewer)
CALLS = 30
#: depth of the matrix-powers halo the CPPCG workload exchanges
DEEP_HALO = 4
#: iterations of the pinned CG the wrapper rungs time
PINNED_ITERS = 100


def median_call_s(fn, calls: int, batch: int = 1) -> float:
    """Median seconds per call over ``calls`` samples of ``batch`` calls."""
    fn()
    samples = []
    for _ in range(calls):
        t0 = perf_counter()
        for _ in range(batch):
            fn()
        samples.append((perf_counter() - t0) / batch)
    return median(samples)


def interleaved_samples(fns: dict, calls: int) -> dict:
    """Seconds per call of each function, sampled round-robin.

    Round ``i`` calls every function once, so ``samples[a][i]`` and
    ``samples[b][i]`` were taken within milliseconds of each other.
    """
    samples = {name: [] for name in fns}
    for _ in range(calls + 1):
        for name, fn in fns.items():
            t0 = perf_counter()
            fn()
            samples[name].append(perf_counter() - t0)
    return {name: s[1:] for name, s in samples.items()}


def paired_excess(samples: dict, whole: str, *parts: str) -> float:
    """Median over rounds of ``whole`` minus the sum of ``parts``.

    The machine's speed drifts by a few percent within seconds; a
    difference of two medians keeps that drift, the median of same-round
    differences does not.  What remains is order: a call is coloured, by
    a few hundred µs at the 20 ms scale, by what ran just before it.
    The order is fixed (reversing it on alternate rounds was tried: the
    differences turn bimodal and their median unstable), so the bias is
    at least the same in every run — differences below ~0.3 ms of a
    20 ms call are not resolved, whatever their sign.
    """
    return median([w - sum(p) for w, *p in
                   zip(samples[whole], *(samples[part] for part in parts))])


# -- kernels, operator, halo, comm: on one tile of the workload's world -----------

def tile_rungs(mesh: int, ranks: int, halo: int, calls: int) -> dict:
    """Rungs on the ``mesh``² system split over ``ranks`` idle ranks.

    Every rank makes the same calls in lockstep, so the collective and
    point-to-point rungs time the mechanism plus the peer's scheduling,
    not a peer that is busy elsewhere.  The kernel rungs run on rank 0
    while the peer waits at a barrier.
    """
    grid, kxg, kyg, bg = crooked_pipe_system(mesh)
    tiles = decompose(grid, ranks)

    def rank_main(comm):
        tile = tiles[comm.rank]
        op = StencilOperator2D.from_global_faces(tile, halo, kxg, kyg, comm)
        p = Field.from_global(tile, halo, bg)
        out = op.new_field()
        deep = Field.from_global(tile, DEEP_HALO, bg)
        exchanger = HaloExchanger(comm)
        m = {"comm.allreduce_us_idle":
             1e6 * median_call_s(lambda: comm.allreduce(1.0), calls, 50),
             "comm.sendrecv_us_idle": 0.0}
        if comm.size > 1:
            peer, strip = 1 - comm.rank, np.zeros(max(tile.ny, tile.nx))
            m["comm.sendrecv_us_idle"] = 1e6 * median_call_s(
                lambda: comm.sendrecv(strip, peer, peer), calls, 50)
        m["halo.exchange_us_depth1"] = 1e6 * median_call_s(
            lambda: exchanger.exchange(deep, depth=1), calls, 10)
        m["halo.exchange_us_depth4"] = 1e6 * median_call_s(
            lambda: exchanger.exchange(deep, depth=DEEP_HALO), calls, 10)
        # The operator's own cost: apply minus the two calls it makes,
        # all three taken in the same rounds on every rank at once.
        rows, cols = op.kx.region(0)
        parts = interleaved_samples({
            "apply": lambda: op.apply(p, out),
            "stencil": lambda: op.kernels.stencil_apply(
                op.kx.data, op.ky.data, p.data, out.data,
                rows.start, rows.stop, cols.start, cols.stop),
            "exchange": lambda: op.exchanger.exchange(p, depth=1),
        }, calls)
        m["operator.apply_us"] = 1e6 * median(parts["apply"])
        m["operator.overhead_us"] = 1e6 * paired_excess(
            parts, "apply", "stencil", "exchange")
        comm.barrier()
        if comm.rank == 0:
            m.update(kernel_rungs(op, p, out, calls))
        comm.barrier()
        return m

    values = launch_spmd(rank_main, ranks)[0]
    values["comm.launch_spmd_s"] = median_call_s(
        lambda: launch_spmd(lambda comm: None, ranks), calls)
    return values


def kernel_rungs(op: StencilOperator2D, p: Field, w: Field,
                 calls: int) -> dict:
    """Achieved GB/s of each kernel of the CG chain, from computed bytes."""
    k, kx, ky = op.kernels, op.kx.data, op.ky.data
    rows, cols = op.kx.region(0)
    r0, r1, c0, c1 = rows.start, rows.stop, cols.start, cols.stop
    x, r = op.new_field(), p.copy()
    cell_bytes = (r1 - r0) * (c1 - c0) * p.data.itemsize
    a, b, c = (np.ones((r1 - r0, c1 - c0)) for _ in range(3))

    def chain():
        # One CG iteration's kernel calls, in the solver's order.
        k.apply_dot(kx, ky, p.data, w.data, r0, r1, c0, c1)
        k.axpy(x.interior, 1e-3, p.interior)
        k.axpy(r.interior, -1e-3, w.interior)
        k.dot(r.interior, r.interior)

    def triad():
        # a = b + s*c with no temporaries: two passes, five array streams.
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)

    seconds = {
        "stencil_apply": median_call_s(lambda: k.stencil_apply(
            kx, ky, p.data, w.data, r0, r1, c0, c1), calls),
        "apply_dot": median_call_s(lambda: k.apply_dot(
            kx, ky, p.data, w.data, r0, r1, c0, c1), calls),
        "axpy": median_call_s(
            lambda: k.axpy(x.interior, 1e-3, p.interior), calls, 3),
        "dot": median_call_s(
            lambda: k.dot(r.interior, r.interior), calls, 3),
        "cg_chain": median_call_s(chain, calls),
        "triad": median_call_s(triad, calls, 3),
    }
    streams = dict(KERNEL_STREAMS, triad=5, cg_chain=(
        KERNEL_STREAMS["apply_dot"] + 2 * KERNEL_STREAMS["axpy"]
        + KERNEL_STREAMS["dot"]))
    m = {f"kernels.{name}_gbs": streams[name] * cell_bytes / s / 1e9
         for name, s in seconds.items()}
    m["kernels.cg_chain_vs_axpy"] = (m["kernels.axpy_gbs"]
                                     / m["kernels.cg_chain_gbs"])
    return m


# -- comm wrappers: what each adds to one CG iteration -----------------------------

def wrapper_rungs(mesh: int, calls: int) -> dict:
    """Added µs per iteration of a pinned CG, per wrapper and stacked."""
    grid, kxg, kyg, bg = crooked_pipe_system(mesh)
    pinned = SolverOptions(solver="cg", eps=1e-300, max_iters=PINNED_ITERS)

    def solver(ranks, wrap):
        tiles = decompose(grid, ranks)

        def rank_main(comm):
            tile = tiles[comm.rank]
            op = StencilOperator2D.from_global_faces(tile, 1, kxg, kyg,
                                                     wrap(comm))
            return solve_linear(op, Field.from_global(tile, 1, bg),
                                options=pinned)
        return lambda: launch_spmd(rank_main, ranks)

    def stack(comm):
        return build_resilient_comm(comm, FaultPlan.disabled()).comm

    wraps = {
        "bare": lambda comm: comm,
        "instrumented": lambda comm: InstrumentedComm(comm, EventLog()),
        "retrying": RetryingComm,
        "faulty": lambda comm: FaultyComm(comm, FaultPlan.disabled()),
        "checksum": ChecksumComm,
        "stack": stack,
    }
    serial = interleaved_samples(
        {name: solver(1, wrap) for name, wrap in wraps.items()}, calls)
    ranks2 = interleaved_samples(
        {name: solver(2, wraps[name]) for name in ("bare", "stack")}, calls)
    m = {f"wrappers.{name}_us_per_it":
         1e6 * paired_excess(serial, name, "bare") / PINNED_ITERS
         for name in wraps if name != "bare"}
    m["wrappers.stack_us_per_it_ranks2"] = (
        1e6 * paired_excess(ranks2, "stack", "bare") / PINNED_ITERS)
    return m


# -- runner, worker, front, journal: what each adds to one request ----------------

def request_rungs(mesh: int, scratch: Path, calls: int) -> dict:
    """One CG request at ``mesh``², taken apart rung by rung.

    bare solve → + system build → + resilient stack (``run_resilient``)
    → + worker (``WorkerGroup.execute``) → + front (``submit``) → +
    journal and result store.  ``front.ladder_remainder_frac`` is the
    share of the journaled submit the rungs leave unexplained.
    """
    deck = CROOKED_PIPE_DECK.format(n=mesh).replace("use_ppcg", "use_cg")
    options = deck_solver_options(parse_deck_text(deck))

    def build():
        g, kx, ky, rhs = crooked_pipe_system(mesh)
        tile = decompose(g, 1)[0]
        return (StencilOperator2D.from_global_faces(tile, 1, kx, ky,
                                                    SerialComm()),
                Field.from_global(tile, 1, rhs))

    op, b = build()
    worker = WorkerGroup(0)
    async def submit(service, **kwargs):
        outcome = await service.submit(deck, n=mesh, **kwargs)
        if outcome.status != "completed":
            raise RuntimeError(f"ladder request ended {outcome.status}: "
                               f"{outcome.error_message}")

    async def rounds():
        service_args = dict(workers=2, group_size=1, max_inflight=8,
                            quota_rate=1e6, quota_burst=1e6)
        journal = RequestJournal(scratch / "ladder-wal")
        store = ResultStore(scratch / "ladder-results")
        samples: dict = {}
        with SolveService(**service_args) as plain, \
                SolveService(**service_args, journal=journal,
                             results=store) as journaled:
            for i in range(calls + 1):
                steps = {
                    "build": build,
                    "solve": lambda: solve_linear(op, b, options=options),
                    "resilient": lambda: run_resilient(
                        options, FaultPlan.disabled(), n=mesh, size=1),
                    "execute": lambda: worker.execute(options, mesh),
                    "submit": lambda: submit(plain),
                    "journaled": lambda: submit(
                        journaled, idempotency_key=f"ladder-{i}"),
                }
                for name, step in steps.items():
                    t0 = perf_counter()
                    out = step()
                    if inspect.isawaitable(out):
                        await out
                    samples.setdefault(name, []).append(perf_counter() - t0)
            records = journal.record_count / (calls + 1)
        return samples, records

    samples, records_per_solve = asyncio.run(rounds())
    samples = {name: s[1:] for name, s in samples.items()}

    x = np.asarray(b.interior)
    store = ResultStore(scratch / "ladder-store")
    journal = RequestJournal(scratch / "ladder-append")
    ids = iter(range(10 ** 6))
    record = {"type": "accepted", "request_id": "req-00000", "tenant": "t",
              "arrival_s": 0.0, "key": "k", "n": mesh, "deck_sha": "0" * 64}
    append = median_call_s(lambda: journal.append(record), calls, 20)
    journal.close()
    save = median_call_s(lambda: store.save(f"r{next(ids)}", x), calls)
    digest = store.save("load", x)
    load = median_call_s(lambda: store.load("load", digest), calls)
    parse = median_call_s(
        lambda: deck_solver_options(parse_deck_text(deck)), calls, 10)

    journal_cost = records_per_solve * append + save
    return {
        "runner.system_build_s": median(samples["build"]),
        "runner.bare_solve_s": median(samples["solve"]),
        "runner.stack_overhead_s":
            paired_excess(samples, "resilient", "build", "solve"),
        "worker.execute_overhead_us":
            1e6 * paired_excess(samples, "execute", "resilient"),
        "front.submit_overhead_us":
            1e6 * paired_excess(samples, "submit", "execute"),
        "front.ladder_remainder_frac":
            (paired_excess(samples, "journaled", "submit") - journal_cost)
            / median(samples["journaled"]),
        "deck.parse_us": 1e6 * parse,
        "journal.append_us": 1e6 * append,
        "results.save_us": 1e6 * save,
        "results.load_us": 1e6 * load,
    }
