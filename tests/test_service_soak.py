"""The service durability soak (``repro.harness.service_soak``).

The acceptance gates of the crash-consistent service: a campaign that is
SIGKILLed at seeded points (some mid journal frame) and restarted until
it completes must end byte-identical to an uninterrupted same-seed run —
outcomes, journal record stream and ledger — with zero lost
acknowledgements and zero duplicate solves for journaled idempotency
keys.  The journal-order audit and ledger plumbing get fast unit tests;
the kill/restart campaign itself is the slow end-to-end gate.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.harness import ledger, service_soak
from repro.service import STATUSES


class TestWorkload:
    def test_generation_is_seeded(self):
        a = service_soak.generate_soak_requests(5, 20)
        b = service_soak.generate_soak_requests(5, 20)
        assert a == b
        assert a != service_soak.generate_soak_requests(6, 20)

    def test_mix_covers_the_durability_surfaces(self):
        requests = service_soak.generate_soak_requests(424243, 30)
        assert any("tl_checkpoint_interval" in r.deck_text
                   for r in requests)          # mid-solve resumable
        assert any(r.chaos_trial >= 0 for r in requests)
        assert any(r.idempotency_key for r in requests)
        keys = [r.idempotency_key for r in requests if r.idempotency_key]
        assert len(set(keys)) < len(keys)      # keys actually repeat
        # ~5% poison decks (none land in the small pinned workload)
        bigger = service_soak.generate_soak_requests(424243, 200)
        assert any("tl_eps=-1" in r.deck_text for r in bigger)
        # Chaos never mixes with resumable checkpointing: fault-plan
        # injection is op-indexed and exact resume must not shift it.
        assert not any(r.chaos_trial >= 0
                       and "tl_checkpoint_interval" in r.deck_text
                       for r in bigger)


class TestJournalAudit:
    TERMINAL = {"type": "terminal", "request_id": "r1",
                "status": "completed", "key": "k", "digest": "d"}

    def test_lost_acknowledgement_detected(self):
        audit = service_soak._audit_journal([self.TERMINAL], {})
        assert any("lost acknowledged" in v for v in audit)

    def test_changed_acknowledgement_detected(self):
        outcomes = {"r1": {"request_id": "r1", "status": "failed"}}
        audit = service_soak._audit_journal([self.TERMINAL], outcomes)
        assert any("acknowledgement changed" in v for v in audit)

    def test_duplicate_solve_after_ack_detected(self):
        records = [
            self.TERMINAL,
            {"type": "accepted", "request_id": "r2", "key": "k"},
        ]
        outcomes = {"r1": {"request_id": "r1", "status": "completed"}}
        audit = service_soak._audit_journal(records, outcomes)
        assert any("re-admitted" in v for v in audit)

    def test_concurrent_bearers_before_ack_are_legal(self):
        records = [
            {"type": "accepted", "request_id": "r1", "key": "k"},
            {"type": "accepted", "request_id": "r2", "key": "k"},
            self.TERMINAL,
            {"type": "dedup", "request_id": "r3", "key": "k",
             "source": "r1"},
        ]
        outcomes = {"r1": {"request_id": "r1", "status": "completed"}}
        assert service_soak._audit_journal(records, outcomes) == []

    def test_dispatched_dedup_detected(self):
        records = [
            {"type": "dedup", "request_id": "r2", "key": "k",
             "source": "r1"},
            {"type": "dispatched", "request_id": "r2", "attempt": 1},
        ]
        audit = service_soak._audit_journal(records, {})
        assert any("dispatched anyway" in v for v in audit)


class TestLedgerIO:
    def test_naming_and_pinning(self, tmp_path):
        result = service_soak.ServiceSoakResult(
            seed=1, kill_seed=2, requests=3, config={})
        result.oracle = {"checked": 0, "skipped": 0, "violations": 0}
        path = ledger.write_ledger(result.as_dict(), tmp_path, "SOAK_SERVICE")
        assert path.name == "SOAK_SERVICE_0.json"
        assert ledger.next_ledger_path(tmp_path, "SOAK_SERVICE").name == \
            "SOAK_SERVICE_1.json"
        pinned = ledger.write_ledger(result.as_dict(), tmp_path,
                                     "SOAK_SERVICE", index=10)
        assert pinned.name == "SOAK_SERVICE_10.json"
        data = json.loads(pinned.read_text())
        assert data["schema"] == service_soak.SCHEMA

    def test_ledger_excludes_runtime_recovery_stats(self):
        result = service_soak.ServiceSoakResult(
            seed=1, kill_seed=2, requests=0, config={},
            runtime={"kills": 7})
        assert "runtime" not in result.as_dict()
        assert "kills" not in json.dumps(result.as_dict())


@pytest.mark.slow
class TestKillRestartCampaign:
    """The end-to-end durability gate (real SIGKILLs, subprocess child)."""

    SEED = 424243
    KILL_SEED = 7
    COUNT = 14

    @pytest.fixture(scope="class")
    def result(self, tmp_path_factory):
        return service_soak.run_service_soak(
            self.SEED, self.COUNT, kill_seed=self.KILL_SEED,
            work_dir=tmp_path_factory.mktemp("soak"))

    def test_campaign_was_actually_killed(self, result):
        assert result.runtime["kills"] >= 1
        assert result.runtime["cycles"] == result.runtime["kills"] + 1

    def test_recovered_run_matches_golden(self, result):
        assert result.checks["outcomes_match_golden"]
        assert result.checks["journal_matches_golden"]
        assert result.checks["lost_acknowledged"] == 0
        assert result.checks["duplicate_solves"] == 0
        assert result.violations == [] and result.passed

    def test_oracle_checked_served_solutions(self, result):
        assert result.oracle["violations"] == 0
        assert result.oracle["checked"] > 0

    def test_every_outcome_classified(self, result):
        assert len(result.outcomes) == self.COUNT
        assert all(o["status"] in STATUSES for o in result.outcomes)

    def test_replay_skipped_journaled_work(self, result):
        assert result.runtime["recovery"]["replayed_attempts"] > 0

    def test_render_summarises(self, result):
        out = service_soak.render(result)
        assert "PASS" in out and "kills=" in out


@pytest.mark.slow
def test_committed_ledger_matches_regeneration(tmp_path):
    """The committed SOAK_SERVICE_10.json is exactly what its pinned
    seeds regenerate — crash-placement byte-invariance as a test gate."""
    pinned = Path(__file__).resolve().parents[1] / "SOAK_SERVICE_10.json"
    data = json.loads(pinned.read_text())
    fresh = service_soak.run_service_soak(
        data["seed"], data["requests"], kill_seed=data["kill_seed"],
        work_dir=tmp_path)
    assert ledger.to_json(fresh.as_dict()) + "\n" == pinned.read_text()
