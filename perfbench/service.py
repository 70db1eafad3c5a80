"""The ``service_mixed`` workload: one op is one ``SolveService.submit``.

Closed loop, two clients: each client awaits its own seeded sequence, so
a slow service receives less load (that is what callers who wait for a
reply do).  The seed shuffles the order; the *multiset* of requests per
client is fixed, so every seed does the same total work and the metrics
compare across seeds.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
import shutil
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

from repro.physics.deck import (CROOKED_PIPE_DECK, deck_solver_options,
                                parse_deck_text)
from repro.resilience import FaultPlan, run_resilient
from repro.service import RequestJournal, ResultStore, SolveService

from perfbench import ladder
from perfbench.solve import Measured, peak_rss_mb
from perfbench.spec import median, percentile
from perfbench.verify import Referee

CLIENTS = 2
#: Mesh sizes and their shares.  The median request must lie well
#: inside one size class, or op_p50_s jumps between classes from seed
#: to seed: with 15 % of requests cheap (dedup hits, poison decks) the
#: issue's 40/35/25 put it exactly on the 32/64 boundary (cumulative
#: 49 %), and 30/45/25 on the class's steep lower edge (spread 22 %).
#: 20/55/25 puts it 39 % of the way into the n=64 class, near its own
#: median, and leaves p90 in the middle of the n=128 class.
MESHES = ((32, 0.20), (64, 0.55), (128, 0.25))
QUICK_MESHES = ((16, 0.20), (32, 0.55), (64, 0.25))
#: (deck flag, extra setting, share)
DECKS = (("use_cg", "", 0.50),
         ("use_ppcg", "", 0.25),
         ("use_ppcg", "tl_ppcg_halo_depth=4", 0.25))
REPEAT_SHARE = 0.10
POISON_SHARE = 0.05
#: a repeat names a key its own client issued at least this many requests ago
REPEAT_DISTANCE = 8
POISON_DECK = "*tea\nuse_cg\ntl_eps=-1\n*endtea\n"


@dataclass(frozen=True)
class Request:
    kind: str        #: "solve" | "repeat" | "poison"
    deck: str
    mesh: int
    tenant: str
    key: str
    cls: str         #: e.g. "n64/use_cg" — what the request costs


def deck_text(mesh: int, flag: str, extra: str) -> str:
    text = CROOKED_PIPE_DECK.format(n=mesh).replace("use_ppcg", flag)
    return text.replace("*endtea", extra + "\n*endtea") if extra else text


def apportion(total: int, shares: list) -> list:
    """Whole numbers summing to ``total`` in proportion to ``shares``."""
    exact = [total * s / sum(shares) for s in shares]
    counts = [int(e) for e in exact]
    by_remainder = sorted(range(len(shares)),
                          key=lambda i: (counts[i] - exact[i], i))
    for i in by_remainder[:total - sum(counts)]:
        counts[i] += 1
    return counts


def client_schedule(rng: random.Random, client: int, count: int,
                    meshes) -> list:
    """One client's sequence: a seeded shuffle of a fixed multiset."""
    n_repeat = round(count * REPEAT_SHARE)
    n_poison = round(count * POISON_SHARE)
    classes = [(mesh, flag, extra, ms * ds)
               for mesh, ms in meshes for flag, extra, ds in DECKS]
    per_class = apportion(count - n_repeat - n_poison,
                          [c[3] for c in classes])
    kinds = ["poison"] * n_poison
    for (mesh, flag, extra, _), k in zip(classes, per_class):
        kinds += [(mesh, flag, extra)] * k
    rng.shuffle(kinds)
    # A repeat must find a solve at least REPEAT_DISTANCE requests back.
    first_solve = next(i for i, k in enumerate(kinds) if k != "poison")
    for _ in range(n_repeat):
        kinds.insert(rng.randint(first_solve + REPEAT_DISTANCE, len(kinds)),
                     "repeat")
    tenant = f"tenant-{client}"
    out: list = []
    for i, kind in enumerate(kinds):
        key = f"run-c{client}-{i:04d}"
        if kind == "poison":
            out.append(Request("poison", POISON_DECK, meshes[0][0], tenant,
                               key, "poison"))
        elif kind == "repeat":
            earlier = [r for r in out[:i - REPEAT_DISTANCE + 1]
                       if r.kind == "solve"]
            src = rng.choice(earlier)
            out.append(Request("repeat", src.deck, src.mesh, tenant, src.key,
                               "repeat"))
        else:
            mesh, flag, extra = kind
            cls = f"n{mesh}/{flag}" + (f"+{extra}" if extra else "")
            out.append(Request("solve", deck_text(mesh, flag, extra), mesh,
                               tenant, key, cls))
    return out


def build_schedule(seed: int, per_client: int, meshes) -> list:
    rng = random.Random(seed)
    return [client_schedule(rng, c, per_client, meshes)
            for c in range(CLIENTS)]


def schedule_bytes(schedule: list) -> bytes:
    return json.dumps([[asdict(r) for r in client] for client in schedule],
                      sort_keys=True).encode()


def warmup_schedule(meshes) -> list:
    """Every solve class once and one poison deck, per client."""
    out = []
    for c in range(CLIENTS):
        reqs = [Request("solve", deck_text(mesh, flag, extra), mesh,
                        f"tenant-{c}", f"warm-c{c}-{i}", "warm")
                for i, (mesh, flag, extra) in enumerate(
                    (m, f, e) for m, _ in meshes for f, e, _ in DECKS)]
        reqs.append(Request("poison", POISON_DECK, meshes[0][0],
                            f"tenant-{c}", f"warm-c{c}-poison", "poison"))
        out.append(reqs)
    return out


class ServiceWorkload:
    name = "service_mixed"

    def __init__(self, seed: int, scratch: Path, quick: bool = False):
        self.seed = seed
        self.scratch = scratch
        self.meshes = QUICK_MESHES if quick else MESHES
        self.ladder_calls = 5 if quick else ladder.CALLS
        self.referee = Referee()

    def setup(self) -> None:
        """Open the journaled service and push the warm-up requests."""
        shutil.rmtree(self.scratch, ignore_errors=True)
        self.journal = RequestJournal(self.scratch / "wal")
        self.results = ResultStore(self.scratch / "results")
        # Quotas high enough that nothing sheds: this workload measures
        # the cost of serving a request, not of refusing one.
        self.service = SolveService(
            workers=2, group_size=1, max_inflight=8, quota_rate=1e6,
            quota_burst=1e6, journal=self.journal, results=self.results)
        asyncio.run(self._drive(warmup_schedule(self.meshes)))

    def close(self) -> None:
        self.service.close()
        shutil.rmtree(self.scratch, ignore_errors=True)

    async def _drive(self, schedule: list) -> tuple[list, float]:
        """Run every client's sequence; returns per-client samples, window."""

        async def client(requests):
            samples = []
            for req in requests:
                t0 = perf_counter()
                outcome = await self.service.submit(
                    req.deck, tenant=req.tenant, n=req.mesh,
                    idempotency_key=req.key)
                samples.append((perf_counter() - t0, req, outcome))
            return samples

        t0 = perf_counter()
        per_client = await asyncio.gather(*(client(r) for r in schedule))
        return per_client, perf_counter() - t0

    # -- the timed region ---------------------------------------------------------

    def measure(self, per_client: int) -> tuple[Measured, list]:
        schedule = build_schedule(self.seed, per_client, self.meshes)
        records_before = self.journal.record_count
        bytes_before = self._journal_bytes()
        per_client_samples, window = asyncio.run(self._drive(schedule))
        m = Measured(window_s=window, peak_rss_mb=peak_rss_mb())
        samples = [s for client in per_client_samples for s in client]
        m.op_seconds = [s[0] for s in samples]
        # Not an exact count: records hold clock readings whose printed
        # length varies.
        self.journal_bytes = self._journal_bytes() - bytes_before
        m.counts = {
            "ops": len(samples),
            "schedule_sha": hashlib.sha256(
                schedule_bytes(schedule)).hexdigest(),
            "journal_records": self.journal.record_count - records_before,
            "statuses": self.judge(samples, m),
        }
        return m, samples

    def _journal_bytes(self) -> int:
        self.journal.sync()
        return sum(p.stat().st_size for p in (self.scratch / "wal").iterdir())

    def judge(self, samples: list, m: Measured) -> dict:
        """Check every request's status and solution; returns status counts."""
        expected = self.expected_iterations(
            {(s[1].mesh, s[1].deck) for s in samples if s[1].kind == "solve"})
        statuses = {"completed": 0, "deduplicated": 0, "rejected": 0,
                    "shed": 0, "unexpected": 0}
        for seconds, req, out in samples:
            why = ""
            if req.kind == "poison":
                if (out.status, out.error_class) != ("failed",
                                                     "ConfigurationError"):
                    why = f"poison deck ended {out.status}/{out.error_class}"
                bucket = "rejected"
            else:
                bucket = "deduplicated" if req.kind == "repeat" else "completed"
                if out.status != "completed":
                    why = f"ended {out.status} ({out.shed_reason}{out.error_class})"
                elif out.deduplicated != (req.kind == "repeat"):
                    why = f"deduplicated={out.deduplicated}"
                else:
                    why, _ = self.referee.check(req.mesh, out.x)
                if not why and req.kind == "solve":
                    outer, total = expected[(req.mesh, req.deck)]
                    if out.iterations != outer:
                        why = f"{out.iterations} iterations, expected {outer}"
                    else:
                        m.cell_updates += req.mesh ** 2 * total
                        m.solve_seconds += seconds
            if why:
                bucket = "shed" if out.status == "shed" else "unexpected"
                m.failures.append(f"{out.request_id} ({req.cls}): {why}")
            else:
                m.ok_ops += 1
            statuses[bucket] += 1
        return statuses

    @staticmethod
    def expected_iterations(classes: set) -> dict:
        """(outer, total) iterations of each (mesh, deck), solved once here.

        ``RequestOutcome`` carries only the outer count; the total
        (outer + inner + warm-up) that ``cell_updates_per_s`` needs comes
        from the same deterministic solve run directly.
        """
        out = {}
        for mesh, deck in classes:
            options = deck_solver_options(parse_deck_text(deck))
            result = run_resilient(options, FaultPlan.disabled(), n=mesh,
                                   size=1).result
            out[(mesh, deck)] = (result.iterations, result.total_iterations)
        return out

    # -- the traced run -----------------------------------------------------------

    def layers(self, per_client: int) -> tuple[Measured, dict]:
        """The run's own samples by class, then the request ladder.

        The program is driven through ``submit`` alone here, so there is
        no proxy to install and the timed run *is* the untraced run: the
        per-class latencies below are its samples, cut by request class.
        """
        m, samples = self.measure(per_client * 2 // 3)
        by_kind = {k: [s[0] for s in samples if s[1].kind == k]
                   for k in ("solve", "repeat", "poison")}
        by_mesh = {mesh: [s[0] for s in samples
                          if s[1].kind == "solve" and s[1].mesh == mesh]
                   for mesh, _ in self.meshes}
        small, mid, large = (mesh for mesh, _ in self.meshes)
        requests = m.counts["ops"]
        statuses = m.counts["statuses"]
        values = {
            "front.dedup_us": 1e6 * median(by_kind["repeat"]),
            "front.reject_us": 1e6 * median(by_kind["poison"]),
            "front.latency_p50_s_n32": median(by_mesh[small]),
            "front.latency_p50_s_n64": median(by_mesh[mid]),
            "front.latency_p50_s_n128": median(by_mesh[large]),
            "front.request_p99_s": percentile(m.op_seconds, 99),
            "front.client_parallelism":
                sum(m.op_seconds) / (m.window_s * CLIENTS),
            "front.completed": statuses["completed"],
            "front.deduplicated": statuses["deduplicated"],
            "front.rejected": statuses["rejected"],
            "front.shed": statuses["shed"],
            "front.unexpected": statuses["unexpected"],
            "journal.records_per_request":
                m.counts["journal_records"] / requests,
            "journal.bytes_per_request": self.journal_bytes / requests,
            # No proxy is installed on this workload (see above).
            "trace.overhead_frac": 0.0,
        }
        values.update(ladder.tile_rungs(mid, 1, 1, self.ladder_calls))
        values.update(ladder.wrapper_rungs(mid, self.ladder_calls))
        values.update(ladder.request_rungs(mid, self.scratch,
                                           self.ladder_calls))
        return m, values
