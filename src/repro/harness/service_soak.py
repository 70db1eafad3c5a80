"""Kill/restart soak of the crash-consistent service → durability ledger.

The campaign drives the journaled :class:`~repro.service.engine.ServiceEngine`
through a seeded mixed workload — resumable checkpointing CG requests,
chaos storms, poison decks, duplicate idempotency keys, deadlines and
client cancels — while a child process is repeatedly ``SIGKILL``\\ ed at
seeded points *mid-campaign* (including mid-frame, leaving a torn journal
tail).  Each restart reopens the same journal, heals the tail, and
replays with exactly-once semantics until the campaign completes.

The recovered run is then judged against an **uninterrupted same-seed
golden run**:

- **zero lost acknowledgements** — every terminal record surviving in
  the journal matches the recovered outcome verbatim;
- **zero duplicate solves** — once a key's completion is journaled,
  no later bearer of that idempotency key is ever admitted for a solve;
- **differential oracle** — every served solution passes PR 7's
  true-residual check;
- **byte identity** — recovered outcomes, the journal record stream,
  and the resulting ``SOAK_SERVICE_<n>.json`` ledger are byte-identical
  to the golden run's, no matter where the kills landed.

The ledger therefore contains only *crash-invariant* data; runtime
recovery statistics (kill cycles, torn tails healed, replayed attempts,
resumed requests) go to stdout.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.harness.service_sweep import (
    ORACLE_THRESHOLD,
    _deck_text,
    _percentile,
    _weighted,
    check_oracle,
    service_config,
)
from repro.service.engine import ServiceEngine
from repro.service.journal import RequestJournal, scan_journal
from repro.service.recovery import ResultStore
from repro.service.requests import STATUSES, SolveRequest

SCHEMA = "repro.service-soak/v1"

#: restart-cycle hard cap (progress >= ~2 records/cycle is guaranteed,
#: so a legitimate campaign finishes far below this)
MAX_CYCLES = 200

#: seeded kill point: this many records past the reopened journal's end
KILL_DRAW = (3, 25)

#: probability a kill lands mid-frame (torn tail) instead of between
#: records
TORN_PROBABILITY = 0.35

#: deck lines opting a request into mid-solve durability (guard
#: snapshots land in the service-managed per-request directory; the
#: deck's dir value is a placeholder)
CHECKPOINT_LINES = "tl_checkpoint_interval=3\ntl_checkpoint_dir=auto"

#: (deck flag, extra lines, chaos-eligible, weight)
SOAK_MIX = (
    ("use_cg", CHECKPOINT_LINES, False, 5),
    ("use_cg", "tl_replace_interval=10", True, 3),
    ("use_jacobi", "tl_enable_checksums", True, 2),
    ("use_ppcg", "tl_eigen_warmup_iters=8\ntl_enable_checksums", False, 2),
    ("use_chebyshev", "tl_eigen_warmup_iters=8\ntl_enable_checksums",
     False, 1),
)

_POISON_DECK = "*tea\nuse_cg\ntl_eps=-1\n*endtea\n"


def generate_soak_requests(seed: int, count: int) -> list[SolveRequest]:
    """Seeded workload exercising every durability surface.

    ~40% of requests carry an idempotency key from a small pool, so the
    campaign *contains* duplicate submissions; checkpointing CG requests
    (the resumable kind) never mix with chaos — fault-plan injection is
    op-indexed and exact resume must not shift it.
    """
    rng = random.Random(seed)
    mix = [((flag, extra, chaos_ok), w)
           for flag, extra, chaos_ok, w in SOAK_MIX]
    requests = []
    now = 0.0
    for i in range(count):
        now += rng.expovariate(700.0)
        tenant = _weighted(rng, [("acme", 3), ("beta", 2)])
        n = 12
        roll = rng.random()
        chaos_trial = -1
        chaos_crash = False
        if roll < 0.05:
            deck = _POISON_DECK
        else:
            flag, extra, chaos_ok = _weighted(rng, mix)
            deck = _deck_text(flag, extra, n)
            if chaos_ok and rng.random() < 0.40:
                chaos_trial = i
                chaos_crash = rng.random() < 0.25
        deadline = rng.uniform(0.0005, 0.004) if rng.random() < 0.10 else None
        cancel_after = rng.uniform(0.0002, 0.001) \
            if rng.random() < 0.05 else None
        key = f"idem-{rng.randrange(6)}" if rng.random() < 0.40 else ""
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
            idempotency_key=key,
        ))
    return requests


def _engine_config(seed: int):
    return service_config(seed, stuck_after_s=0.05)


def _run_campaign(root: Path, seed: int, count: int):
    """One full engine pass over the workload with durability on."""
    root = Path(root)
    journal = RequestJournal(root / "wal")
    engine = ServiceEngine(
        _engine_config(seed),
        journal=journal,
        results=ResultStore(root / "results"),
        checkpoint_root=root / "checkpoints")
    outcomes = engine.run(generate_soak_requests(seed, count))
    journal.close()
    return engine, outcomes


# -- child process: run until the armed kill fires ---------------------------


def _child(root: Path, seed: int, count: int, kill_seed: int,
           cycle: int) -> int:
    """Run the campaign with a seeded SIGKILL armed; 0 = ran to completion.

    The kill point is drawn relative to the *reopened* journal's record
    count, so every cycle makes progress; ``torn`` mode dies mid-frame
    to exercise tail healing on the next open.
    """
    root = Path(root)
    journal = RequestJournal(root / "wal")
    rng = random.Random(f"{kill_seed}:{cycle}")
    kill_after = journal.record_count + rng.randint(*KILL_DRAW)
    mode = "torn" if rng.random() < TORN_PROBABILITY else "clean"
    journal.arm_kill(kill_after, mode)
    engine = ServiceEngine(
        _engine_config(seed),
        journal=journal,
        results=ResultStore(root / "results"),
        checkpoint_root=root / "checkpoints")
    # Runtime-only sidecar (never compared against golden): what this
    # cycle found on reopen — healed torn tails and in-flight victims
    # eligible for mid-solve resume — before the next kill erases it.
    with (root / "recovery-log.jsonl").open("a", encoding="utf-8") as fh:
        fh.write(json.dumps({
            "cycle": cycle, "records": journal.record_count,
            "healed": list(journal.warnings),
            "in_flight": [list(v) for v in engine.replay.in_flight()],
        }, sort_keys=True) + "\n")
    outcomes = engine.run(generate_soak_requests(seed, count))
    journal.close()
    # Survived the armed kill: the campaign is complete.  Persist what
    # only this process knows (outcomes + runtime recovery stats); the
    # parent re-loads it for the golden comparison.
    oracle, oracle_violations = _oracle(outcomes, seed, count)
    (root / "outcomes.json").write_text(json.dumps({
        "outcomes": [o.to_dict() for o in outcomes],
        "oracle": oracle,
        "oracle_violations": oracle_violations,
        "recovery": engine.recovery_summary(),
    }, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def _oracle(outcomes, seed: int, count: int) -> tuple[dict, list[str]]:
    """The differential oracle's ledger summary and its violations."""
    checked, skipped, violations = check_oracle(
        outcomes, generate_soak_requests(seed, count))
    return ({"checked": checked, "skipped": skipped,
             "threshold": ORACLE_THRESHOLD,
             "violations": len(violations)}, violations)


# -- journal audits ----------------------------------------------------------


def _audit_journal(records: list[dict],
                   outcomes_by_id: dict[str, dict]) -> list[str]:
    """Exactly-once invariants over the surviving journal records."""
    violations: list[str] = []
    # Zero lost acknowledgements: every journaled terminal's status is
    # exactly what the recovered run reports for that request.
    for rec in records:
        if rec.get("type") != "terminal":
            continue
        out = outcomes_by_id.get(rec["request_id"])
        if out is None:
            violations.append(
                f"lost acknowledged request {rec['request_id']} "
                f"(journaled terminal {rec['status']!r}, no outcome)")
        elif out["status"] != rec["status"]:
            violations.append(
                f"acknowledgement changed for {rec['request_id']}: "
                f"journaled {rec['status']!r}, recovered {out['status']!r}")
    # Zero duplicate solves for acknowledged idempotency keys: once a
    # key's completion is journaled, every later bearer must be admitted
    # as a "dedup" (served from the digest), never "accepted" for a
    # solve.  Concurrent in-flight bearers admitted *before* the first
    # acknowledgement may legitimately both solve — dedup is an
    # admission-time, journal-order guarantee.
    completed_keys: set = set()
    dedup_requests: set = set()
    for rec in records:
        kind = rec.get("type")
        key = rec.get("key", "")
        if kind == "accepted" and key and key in completed_keys:
            violations.append(
                f"idempotency key {key!r} already acknowledged, but "
                f"{rec['request_id']} was re-admitted for a solve")
        elif kind == "dedup":
            dedup_requests.add(rec["request_id"])
        elif kind == "dispatched" and rec["request_id"] in dedup_requests:
            violations.append(
                f"deduplicated request {rec['request_id']} was "
                f"dispatched anyway")
        elif kind == "terminal" and key and rec.get("digest") \
                and rec.get("status") in ("completed", "degraded"):
            completed_keys.add(key)
    return violations


# -- the soak ----------------------------------------------------------------


@dataclass
class ServiceSoakResult:
    """Crash-invariant ledger + runtime (stdout-only) recovery stats."""

    seed: int
    kill_seed: int
    requests: int
    config: dict
    outcomes: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    oracle: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)
    #: runtime-only (kill cycles, replays, torn tails) — NOT in the ledger
    runtime: dict = field(default_factory=dict)

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
            "kill_seed": self.kill_seed,
            "requests": self.requests,
            "config": self.config,
            "stats": self.stats,
            "checks": self.checks,
            "oracle": self.oracle,
            "violations": list(self.violations),
            "outcomes": list(self.outcomes),
        }


def _stats(outcomes: list[dict]) -> dict:
    by_status = {s: 0 for s in STATUSES}
    for o in outcomes:
        by_status[o["status"]] = by_status.get(o["status"], 0) + 1
    served = [o for o in outcomes
              if o["status"] in ("completed", "degraded")]
    latencies = sorted(o["latency_s"] for o in served)
    return {
        "submitted": len(outcomes),
        "by_status": by_status,
        "deduplicated": sum(1 for o in outcomes if o["deduplicated"]),
        "with_idempotency_key": sum(
            1 for o in outcomes if o["idempotency_key"]),
        "served": len(served),
        "latency_p50_s": _percentile(latencies, 0.50),
        "latency_p99_s": _percentile(latencies, 0.99),
        "comm_retries": sum(o["retries"] for o in outcomes),
    }


def run_service_soak(seed: int = 424243, count: int = 30, *,
                     kill_seed: int = 7,
                     work_dir: Path) -> ServiceSoakResult:
    """Kill/restart campaign + golden comparison; see the module docs.

    ``work_dir`` receives two trees: ``killed/`` (journal + results +
    checkpoints surviving the SIGKILL cycles) and ``golden/`` (the
    uninterrupted reference).
    """
    work_dir = Path(work_dir)
    killed_root = work_dir / "killed"
    golden_root = work_dir / "golden"
    killed_root.mkdir(parents=True, exist_ok=True)

    child_args = (str(killed_root), seed, count, kill_seed)
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")

    cycles = 0
    kills = 0
    while True:
        if cycles >= MAX_CYCLES:
            raise RuntimeError(
                f"service soak made no progress in {MAX_CYCLES} cycles")
        cycles += 1
        call = ("import sys; from repro.harness.service_soak import _child; "
                f"sys.exit(_child(*{child_args + (cycles,)!r}))")
        proc = subprocess.run(
            [sys.executable, "-c", call], env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        if proc.returncode == 0:
            break
        if proc.returncode != -9:   # anything but the armed SIGKILL
            raise RuntimeError(
                f"soak child failed (rc={proc.returncode}):\n"
                + proc.stderr.decode(errors="replace")[-2000:])
        kills += 1

    child_out = json.loads(
        (killed_root / "outcomes.json").read_text(encoding="utf-8"))
    recovered = child_out["outcomes"]

    # Uninterrupted same-seed reference, fully independent tree.
    golden_engine, golden_outcomes = _run_campaign(golden_root, seed, count)
    golden_dicts = [o.to_dict() for o in golden_outcomes]
    golden_oracle, golden_oracle_violations = _oracle(
        golden_outcomes, seed, count)

    violations: list[str] = []
    outcomes_match = recovered == golden_dicts
    if not outcomes_match:
        diff = [r["request_id"] for r, g in zip(recovered, golden_dicts)
                if r != g]
        violations.append(
            "recovered outcomes diverge from the uninterrupted run: "
            + ", ".join(diff[:5]))
    cycle_log = []
    log_path = killed_root / "recovery-log.jsonl"
    if log_path.is_file():
        cycle_log = [json.loads(line) for line in
                     log_path.read_text(encoding="utf-8").splitlines()]
    killed_records, killed_warnings = scan_journal(killed_root / "wal")
    golden_records, _ = scan_journal(golden_root / "wal")
    journal_match = killed_records == golden_records
    if not journal_match:
        violations.append(
            f"journal record streams diverge "
            f"({len(killed_records)} vs {len(golden_records)} records)")
    outcomes_by_id = {o["request_id"]: o for o in recovered}
    audit = _audit_journal(killed_records, outcomes_by_id)
    violations.extend(audit)
    violations.extend(child_out["oracle_violations"][:10])
    violations.extend(golden_oracle_violations[:10])
    if child_out["oracle"] != golden_oracle:
        violations.append(
            f"oracle summaries diverge: recovered {child_out['oracle']} "
            f"vs golden {golden_oracle}")

    checks = {
        "outcomes_match_golden": outcomes_match,
        "journal_matches_golden": journal_match,
        "lost_acknowledged": sum(1 for v in audit if "lost" in v
                                 or "changed" in v),
        "duplicate_solves": sum(1 for v in audit
                                if "re-admitted" in v or "anyway" in v),
    }
    return ServiceSoakResult(
        seed=seed,
        kill_seed=kill_seed,
        requests=count,
        config=asdict(_engine_config(seed)),
        outcomes=recovered,
        stats=_stats(recovered),
        checks=checks,
        oracle=child_out["oracle"],
        violations=violations,
        runtime={
            "cycles": cycles,
            "kills": kills,
            "journal_records": len(killed_records),
            "torn_tail_warnings": killed_warnings,
            "torn_tails_healed": sum(len(c["healed"]) for c in cycle_log),
            "in_flight_victims": sum(len(c["in_flight"])
                                     for c in cycle_log),
            "recovery": child_out["recovery"],
            "golden_recovery": golden_engine.recovery_summary(),
        },
    )


def render(result: ServiceSoakResult) -> str:
    s = result.stats
    r = result.runtime
    lines = [f"== service soak: seed={result.seed} "
             f"kill_seed={result.kill_seed} requests={result.requests} =="]
    lines.append(
        f"  cycles={r.get('cycles', '?')} kills={r.get('kills', '?')} "
        f"journal_records={r.get('journal_records', '?')} "
        f"torn_tails_healed={r.get('torn_tails_healed', 0)} "
        f"in_flight_victims={r.get('in_flight_victims', 0)}")
    rec = r.get("recovery", {})
    lines.append(
        f"  final cycle: replayed_attempts={rec.get('replayed_attempts')} "
        f"resumed={len(rec.get('resumed_requests', []))} "
        f"deduplicated={rec.get('deduplicated')}")
    lines.append("  " + " ".join(
        f"{status}={s['by_status'][status]}" for status in STATUSES))
    lines.append(
        f"  deduplicated={s['deduplicated']} "
        f"keyed={s['with_idempotency_key']} served={s['served']} "
        f"p99={s['latency_p99_s']*1e3:.2f}ms")
    lines.append(
        f"  checks: outcomes_match_golden={result.checks['outcomes_match_golden']} "
        f"journal_matches_golden={result.checks['journal_matches_golden']} "
        f"lost_acknowledged={result.checks['lost_acknowledged']} "
        f"duplicate_solves={result.checks['duplicate_solves']}")
    lines.append(f"  oracle checked={result.oracle['checked']} "
                 f"skipped={result.oracle['skipped']} "
                 f"violations={result.oracle['violations']}")
    for v in result.violations:
        lines.append(f"  VIOLATION {v}")
    lines.append("  PASS" if result.passed else "  FAIL")
    return "\n".join(lines)
