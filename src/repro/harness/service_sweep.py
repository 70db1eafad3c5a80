"""Service load-generator: deterministic multi-tenant sweeps → SLO ledger.

Drives the :class:`~repro.service.engine.ServiceEngine` with a seeded
workload of mixed deck-style requests — several tenants (one heavy
hitter that trips its quota), a solver mix, matrix-powers depth
variants, poison decks, chaos storms (transient fault plans plus fatal
rank crashes via PR 7's :func:`~repro.resilience.chaos.random_fault_plan`),
tight deadlines and mid-solve client cancels — and writes the outcome
ledger as ``SERVICE_<n>.json`` (schema ``repro.service/v1``).

Everything runs on virtual time from seeded draws: two same-seed sweeps
write **byte-identical** JSON.  The ledger carries per-status counts,
latency percentiles, shed/degrade/breaker/recovery rates, cache
statistics and the SLO verdicts; completed/degraded solutions are
checked against PR 7's differential oracle
(:class:`~repro.resilience.chaos.GoldenCache` true residuals).
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field

from repro.physics.deck import CROOKED_PIPE_DECK
from repro.resilience.chaos import ORACLE_RESIDUAL_SLACK, GoldenCache
from repro.service.engine import ServiceConfig, ServiceEngine
from repro.service.requests import STATUSES, SolveRequest

SCHEMA = "repro.service/v1"

#: (tenant, arrival weight); acme is the deliberate heavy hitter.
TENANTS = (("acme", 5), ("beta", 3), ("gamma", 2))

#: (deck solver flag, extra deck lines, weight).  Defence selection
#: mirrors PR 7's campaign: the CG family carries residual replacement
#: (corruption cannot fake convergence), the others arm the checksum
#: integrity layer instead.
SOLVER_MIX = (
    ("use_cg", "tl_replace_interval=10", 6),
    ("use_cg_fused", "tl_enable_checksums", 2),
    ("use_jacobi", "tl_enable_checksums", 2),
    ("use_ppcg", "tl_eigen_warmup_iters=8\ntl_enable_checksums", 3),
    ("use_ppcg", "tl_eigen_warmup_iters=8\ntl_ppcg_halo_depth=4\n"
     "tl_enable_checksums", 2),
    ("use_chebyshev", "tl_eigen_warmup_iters=8\ntl_enable_checksums", 2),
)

#: Deck tolerance every sweep request runs at (the chaos campaign's).
SWEEP_EPS = 1e-8

#: True relative residual above which a served solution fails the
#: differential oracle.
ORACLE_THRESHOLD = ORACLE_RESIDUAL_SLACK * SWEEP_EPS

_POISON_DECKS = (
    "*tea\nbogus_key=1\n*endtea\n",                       # unknown setting
    "*tea\nuse_cg\ntl_eps=-1\n*endtea\n",                  # invalid value
    "*tea\nuse_cg\ntl_max_iters=not_a_number\n*endtea\n",  # bad cast
)

#: Default SLO budgets the ledger is judged against.
DEFAULT_SLO = {
    "max_unclassified": 0,
    "max_oracle_violations": 0,
    "min_served_rate": 0.50,       # completed+degraded / admitted
    "max_shed_rate": 0.40,         # shed / submitted
    "max_failed_rate": 0.20,       # failed / submitted
    "max_p99_latency_s": 0.30,     # virtual seconds
    "min_recovery_rate": 0.20,     # served after re-dispatch / redispatched
}


def _weighted(rng: random.Random, pairs):
    total = sum(w for _, w in pairs)
    pick = rng.random() * total
    for value, weight in pairs:
        pick -= weight
        if pick <= 0:
            return value
    return pairs[-1][0]


def _deck_text(flag: str, extra: str, n: int) -> str:
    # The template's own tl_eps line is replaced (not shadowed): the
    # hardened deck parser rejects duplicate settings outright.
    text = (CROOKED_PIPE_DECK.format(n=n)
            .replace("use_ppcg", flag)
            .replace("tl_eps=1e-10", f"tl_eps={SWEEP_EPS}"))
    if extra:
        text = text.replace("*endtea", extra + "\n*endtea")
    return text


def generate_requests(seed: int, count: int, *,
                      chaos: bool = True) -> list[SolveRequest]:
    """Seeded mixed workload (poison/chaos/deadline/cancel flavours)."""
    rng = random.Random(seed)
    requests = []
    now = 0.0
    tenant_pairs = [(t, w) for t, w in TENANTS]
    solver_pairs = [((flag, extra), w) for flag, extra, w in SOLVER_MIX]
    for i in range(count):
        now += rng.expovariate(700.0)   # ~1.4 ms mean inter-arrival
        tenant = _weighted(rng, tenant_pairs)
        n = 16 if rng.random() < 0.35 else 12
        roll = rng.random()
        if roll < 0.03:
            deck = _POISON_DECKS[i % len(_POISON_DECKS)]
        else:
            flag, extra = _weighted(rng, solver_pairs)
            deck = _deck_text(flag, extra, n)
        deadline = None
        if rng.random() < 0.25:
            # Mixed deadlines: roughly half are tight enough to expire.
            deadline = rng.uniform(0.0002, 0.004)
        cancel_after = None
        if rng.random() < 0.05:
            cancel_after = rng.uniform(0.0001, 0.001)
        chaos_trial = -1
        chaos_crash = False
        if chaos and rng.random() < 0.30:
            chaos_trial = i
            chaos_crash = rng.random() < 0.25
        requests.append(SolveRequest(
            request_id=f"req-{i:05d}",
            tenant=tenant,
            arrival_s=now,
            deck_text=deck,
            n=n,
            deadline_s=deadline,
            cancel_after_s=cancel_after,
            max_attempts=3,
            chaos_trial=chaos_trial,
            chaos_crash=chaos_crash,
        ))
    return requests


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      int(q * len(sorted_values) + 0.5) - 1))
    return sorted_values[rank]


@dataclass
class ServiceSweepResult:
    """One sweep's full ledger (JSON-ready, byte-deterministic)."""

    seed: int
    requests: int
    chaos: bool
    config: dict
    outcomes: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    slo: dict = field(default_factory=dict)
    oracle: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def exit_code(self) -> int:
        return 0 if self.passed else 1

    def as_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "seed": self.seed,
            "requests": self.requests,
            "chaos": self.chaos,
            "config": self.config,
            "stats": self.stats,
            "slo": self.slo,
            "oracle": self.oracle,
            "violations": list(self.violations),
            "outcomes": list(self.outcomes),
        }


def _compute_stats(outcomes, engine: ServiceEngine) -> dict:
    submitted = len(outcomes)
    by_status = {s: 0 for s in STATUSES}
    for o in outcomes:
        by_status[o.status] = by_status.get(o.status, 0) + 1
    served = [o for o in outcomes if o.status in ("completed", "degraded")]
    latencies = sorted(o.latency_s for o in served)
    admitted = submitted - by_status["shed"]
    redispatched = [o for o in outcomes if o.attempts > 1]
    recovered = [o for o in redispatched
                 if o.status in ("completed", "degraded")]
    makespan = max((o.finish_s for o in outcomes if o.finish_s >= 0),
                   default=0.0)
    per_tenant: dict = {}
    for o in outcomes:
        t = per_tenant.setdefault(o.tenant,
                                  {"submitted": 0, "shed": 0, "served": 0})
        t["submitted"] += 1
        if o.status == "shed":
            t["shed"] += 1
        elif o.status in ("completed", "degraded"):
            t["served"] += 1
    breakers = [w.breaker for w in engine.workers]
    return {
        "submitted": submitted,
        "admitted": admitted,
        "by_status": by_status,
        "served_rate": (len(served) / admitted) if admitted else 0.0,
        "shed_rate": by_status["shed"] / submitted if submitted else 0.0,
        "failed_rate": by_status["failed"] / submitted if submitted else 0.0,
        "degrade_rate": (by_status["degraded"] / admitted) if admitted else 0.0,
        "latency_p50_s": _percentile(latencies, 0.50),
        "latency_p99_s": _percentile(latencies, 0.99),
        "latency_mean_s": (sum(latencies) / len(latencies)) if latencies
        else 0.0,
        "throughput_rps": (len(served) / makespan) if makespan > 0 else 0.0,
        "makespan_s": makespan,
        "redispatches": len(redispatched),
        "recovery_rate": (len(recovered) / len(redispatched))
        if redispatched else 1.0,
        "breaker_opened": sum(b.opened for b in breakers),
        "breaker_reclosed": sum(b.reclosed for b in breakers),
        "comm_retries": sum(o.retries for o in outcomes),
        "cache": engine.cache.stats(),
        "per_tenant": per_tenant,
        "counters": dict(sorted(
            engine.metrics.snapshot()["counters"].items())),
    }


def check_oracle(outcomes, requests) -> tuple[int, int, list[str]]:
    """The chaos campaign's differential oracle over every served solution:
    ``(checked, skipped, violations)``, where ``skipped`` counts served
    outcomes that carry no solution to check."""
    golden = GoldenCache()
    checked = skipped = 0
    violations: list[str] = []
    n_of = {r.request_id: r.n for r in requests}
    for o in outcomes:
        if o.status not in ("completed", "degraded"):
            continue
        if o.x is None:
            skipped += 1
            continue
        checked += 1
        rel = golden.true_relative_residual(o.x, n_of[o.request_id])
        if rel > ORACLE_THRESHOLD:
            violations.append(
                f"{o.request_id}: true relative residual {rel:.3e} "
                f"> {ORACLE_THRESHOLD:.1e}")
    return checked, skipped, violations


def service_config(seed: int, *, workers: int = 2, group_size: int = 2,
                   stuck_after_s: float = 0.0) -> ServiceConfig:
    """The engine configuration of the service campaigns (sweep and
    soak): a short queue and a quota the heavy tenant trips."""
    return ServiceConfig(workers=workers, group_size=group_size,
                         max_queue=8, quota_rate=300.0, quota_burst=12.0,
                         chaos_seed=seed, stuck_after_s=stuck_after_s)


def run_service_sweep(seed: int = 20170905,
                      count: int = 200,
                      *,
                      chaos: bool = True,
                      workers: int = 2,
                      group_size: int = 2,
                      slo: dict | None = None) -> ServiceSweepResult:
    """Run one sweep and judge it against the SLO budgets."""
    cfg = service_config(seed, workers=workers, group_size=group_size)
    budgets = dict(DEFAULT_SLO)
    if slo:
        budgets.update(slo)
    requests = generate_requests(seed, count, chaos=chaos)
    engine = ServiceEngine(cfg)
    outcomes = engine.run(requests)
    stats = _compute_stats(outcomes, engine)

    violations: list[str] = []
    unclassified = [o for o in outcomes if o.status not in STATUSES
                    or (o.status == "failed" and not o.error_class)]
    if len(unclassified) > budgets["max_unclassified"]:
        violations.append(
            f"{len(unclassified)} unclassified outcome(s): "
            + ", ".join(o.request_id for o in unclassified[:5]))
    checked, _, oracle_violations = check_oracle(outcomes, requests)
    oracle = {"checked": checked, "threshold": ORACLE_THRESHOLD,
              "violations": len(oracle_violations)}
    violations.extend(oracle_violations[:10])
    if stats["served_rate"] < budgets["min_served_rate"]:
        violations.append(
            f"served_rate {stats['served_rate']:.3f} "
            f"< {budgets['min_served_rate']}")
    if stats["shed_rate"] > budgets["max_shed_rate"]:
        violations.append(
            f"shed_rate {stats['shed_rate']:.3f} "
            f"> {budgets['max_shed_rate']}")
    if stats["failed_rate"] > budgets["max_failed_rate"]:
        violations.append(
            f"failed_rate {stats['failed_rate']:.3f} "
            f"> {budgets['max_failed_rate']}")
    if stats["latency_p99_s"] > budgets["max_p99_latency_s"]:
        violations.append(
            f"latency_p99_s {stats['latency_p99_s']:.4f} "
            f"> {budgets['max_p99_latency_s']}")
    if stats["redispatches"] > 0 \
            and stats["recovery_rate"] < budgets["min_recovery_rate"]:
        violations.append(
            f"recovery_rate {stats['recovery_rate']:.3f} "
            f"< {budgets['min_recovery_rate']}")

    return ServiceSweepResult(
        seed=seed,
        requests=count,
        chaos=chaos,
        config=asdict(cfg),
        outcomes=[o.to_dict() for o in outcomes],
        stats=stats,
        slo=budgets,
        oracle=oracle,
        violations=violations,
    )


def render(result: ServiceSweepResult) -> str:
    """Human-readable sweep summary."""
    s = result.stats
    lines = [f"== service sweep: seed={result.seed} "
             f"requests={result.requests} chaos={result.chaos} =="]
    lines.append("  " + " ".join(
        f"{status}={s['by_status'][status]}" for status in STATUSES))
    lines.append(
        f"  served_rate={s['served_rate']:.3f} shed={s['shed_rate']:.3f} "
        f"failed={s['failed_rate']:.3f} degrade={s['degrade_rate']:.3f}")
    lines.append(
        f"  latency p50={s['latency_p50_s']*1e3:.2f}ms "
        f"p99={s['latency_p99_s']*1e3:.2f}ms "
        f"throughput={s['throughput_rps']:.0f} req/s "
        f"makespan={s['makespan_s']:.3f}s")
    lines.append(
        f"  redispatches={s['redispatches']} "
        f"recovery_rate={s['recovery_rate']:.3f} "
        f"breaker opened={s['breaker_opened']} "
        f"reclosed={s['breaker_reclosed']} "
        f"comm_retries={s['comm_retries']}")
    cache = s["cache"]
    lines.append(
        f"  cache hits={cache['hits']} misses={cache['misses']} "
        f"evictions={cache['evictions']} corruptions={cache['corruptions']}")
    lines.append(f"  oracle checked={result.oracle['checked']} "
                 f"violations={result.oracle['violations']}")
    for v in result.violations:
        lines.append(f"  SLO {v}")
    lines.append("  PASS" if result.passed else "  FAIL")
    return "\n".join(lines)
