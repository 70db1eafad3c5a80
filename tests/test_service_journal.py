"""Crash consistency of the solve service (journal + recovery + supervisor).

The load-bearing claims: the write-ahead journal round-trips and heals
torn tails (but never papers over sealed-segment rot), replay is
verify-or-append with exactly-once side effects (journaled solves are
never redone, a divergent re-run aborts), idempotency keys are served
from the durable result store across restarts, a mid-solve crash victim
resumes from its guard shards bit-identically, and a stuck dispatch is
cancelled and hedged by the supervisor.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.physics.deck import CROOKED_PIPE_DECK
from repro.service import (
    RecoveryWarning,
    ReplayIndex,
    RequestJournal,
    ResultStore,
    ServiceConfig,
    ServiceEngine,
    SolveRequest,
    SupervisedToken,
    WorkerStuck,
    deck_fingerprint,
    encode_record,
    scan_journal,
    solution_digest,
)
from repro.service.cancel import CancelToken, Cancelled
from repro.service.recovery import replay_error, synthesize_result
from repro.utils.errors import JournalError


def _rec(i, **kw):
    return {"type": "note", "request_id": f"req-{i:05d}", **kw}


# -- the write-ahead log -------------------------------------------------------


class TestJournalFraming:
    def test_append_reopen_round_trip(self, tmp_path):
        with RequestJournal(tmp_path / "wal") as j:
            for i in range(5):
                j.append(_rec(i, tenant="acme"))
            assert j.record_count == 5
        again = RequestJournal(tmp_path / "wal")
        assert again.records == [_rec(i, tenant="acme") for i in range(5)]
        assert again.warnings == []

    def test_canonical_encoding(self):
        a = encode_record({"b": 1, "a": 2})
        b = encode_record({"a": 2, "b": 1})
        assert a == b == b'{"a":2,"b":1}'

    def test_unserializable_record_rejected(self, tmp_path):
        j = RequestJournal(tmp_path / "wal")
        with pytest.raises(JournalError, match="JSON"):
            j.append({"x": object()})

    def test_segment_roll_seals_and_continues(self, tmp_path):
        root = tmp_path / "wal"
        with RequestJournal(root, segment_records=3) as j:
            for i in range(8):
                j.append(_rec(i))
        assert sorted(p.name for p in root.glob("wal-*.log")) == \
            ["wal-000000.log", "wal-000001.log"]
        assert [p.name for p in root.glob("wal-*.open")] == \
            ["wal-000002.log".replace(".log", ".open")]
        again = RequestJournal(root, segment_records=3)
        assert again.record_count == 8

    def test_torn_tail_healed_on_reopen(self, tmp_path):
        root = tmp_path / "wal"
        with RequestJournal(root) as j:
            for i in range(3):
                j.append(_rec(i))
        active = next(root.glob("wal-*.open"))
        payload = encode_record(_rec(3))
        frame = struct.pack("<II", len(payload), zlib.crc32(payload)) + payload
        with open(active, "ab") as fh:
            fh.write(frame[: len(frame) // 2])      # SIGKILL mid-frame
        healed = RequestJournal(root)
        assert healed.record_count == 3
        assert len(healed.warnings) == 1 and "torn" in healed.warnings[0]
        for i in range(3):
            healed.append(_rec(i))                  # re-offered: verified
        healed.append(_rec(3))                      # tail is writable again
        healed.close()
        records, warnings = scan_journal(root)
        assert records == [_rec(i) for i in range(4)] and warnings == []

    def test_sealed_corruption_is_fatal(self, tmp_path):
        root = tmp_path / "wal"
        with RequestJournal(root, segment_records=2) as j:
            for i in range(4):
                j.append(_rec(i))
        sealed = root / "wal-000000.log"
        data = bytearray(sealed.read_bytes())
        data[-1] ^= 0xFF                            # bit rot, CRC now wrong
        sealed.write_bytes(bytes(data))
        with pytest.raises(JournalError, match="sealed segment"):
            RequestJournal(root)
        with pytest.raises(JournalError, match="sealed segment"):
            scan_journal(root)

    def test_arm_kill_validation(self, tmp_path):
        j = RequestJournal(tmp_path / "wal")
        with pytest.raises(JournalError, match="kill mode"):
            j.arm_kill(5, "sideways")
        with pytest.raises(JournalError, match=">= 1"):
            j.arm_kill(0)


class TestVerifyOrAppend:
    def test_replay_verifies_then_appends(self, tmp_path):
        root = tmp_path / "wal"
        with RequestJournal(root) as j:
            j.append(_rec(0))
            j.append(_rec(1))
        again = RequestJournal(root)
        before = (root / "wal-000000.open").stat().st_size
        again.append(_rec(0))                       # verified, not written
        again.append(_rec(1))
        assert (root / "wal-000000.open").stat().st_size == before
        again.append(_rec(2))                       # past prefix: written
        assert (root / "wal-000000.open").stat().st_size > before
        assert again.record_count == 3

    def test_divergent_replay_aborts(self, tmp_path):
        root = tmp_path / "wal"
        with RequestJournal(root) as j:
            j.append(_rec(0, status="completed"))
        again = RequestJournal(root)
        with pytest.raises(JournalError, match="divergence at record 0"):
            again.append(_rec(0, status="failed"))

    def test_fast_forward_skips_verification(self, tmp_path):
        root = tmp_path / "wal"
        with RequestJournal(root) as j:
            j.append(_rec(0))
        again = RequestJournal(root)
        again.fast_forward()
        again.append(_rec(99))                      # append-only owner
        assert again.record_count == 2


# -- the recovery read side ----------------------------------------------------


class TestReplayIndex:
    RECORDS = [
        {"type": "accepted", "request_id": "r1", "key": "k"},
        {"type": "dispatched", "request_id": "r1", "attempt": 1},
        {"type": "attempt", "request_id": "r1", "attempt": 1, "kind": "ok"},
        {"type": "terminal", "request_id": "r1", "status": "completed",
         "key": "k", "digest": "d1"},
        {"type": "accepted", "request_id": "r2", "key": ""},
        {"type": "dispatched", "request_id": "r2", "attempt": 1},
    ]

    def test_indexing_and_in_flight(self):
        idx = ReplayIndex.from_records(self.RECORDS)
        assert idx.record_count == len(self.RECORDS)
        assert idx.admissions["r1"]["type"] == "accepted"
        assert idx.completed_by_key["k"]["digest"] == "d1"
        assert idx.in_flight() == [("r2", 1)]
        assert idx.resumable("r2", 1)
        assert not idx.resumable("r1", 1)           # attempt journaled
        assert not idx.resumable("r2", 2)           # never dispatched

    def test_first_completion_wins_per_key(self):
        records = self.RECORDS + [
            {"type": "terminal", "request_id": "r3", "status": "completed",
             "key": "k", "digest": "d3"}]
        idx = ReplayIndex.from_records(records)
        assert idx.completed_by_key["k"]["digest"] == "d1"

    @given(st.lists(st.fixed_dictionaries({
        "type": st.sampled_from(["accepted", "shed", "dedup", "dispatched",
                                 "attempt", "terminal", "note"]),
        "request_id": st.sampled_from(["r1", "r2", "r3"]),
        "attempt": st.integers(1, 2),
        "status": st.sampled_from(["completed", "degraded", "failed"]),
        "key": st.sampled_from(["", "k1", "k2"]),
        "digest": st.sampled_from(["d1", "d2"])}), max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_replaying_a_journal_twice_indexes_like_once(self, records):
        """Idempotence of the read side: whatever the record stream —
        valid lifecycle or not — indexing it twice over changes nothing
        but the record count, so a recovery that is itself interrupted
        and restarted sees the decisions of the first."""
        once = ReplayIndex.from_records(records)
        twice = ReplayIndex.from_records(records + records)
        assert twice.record_count == 2 * once.record_count
        twice.record_count = once.record_count
        assert twice == once
        assert twice.in_flight() == once.in_flight()


class TestResultStore:
    def test_save_load_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "results")
        x = np.linspace(0.0, 1.0, 9)
        digest = store.save("r1", x)
        assert digest == solution_digest(x)
        assert np.array_equal(store.load("r1", digest), x)

    def test_missing_and_damaged_shards_degrade(self, tmp_path):
        store = ResultStore(tmp_path / "results")
        with pytest.warns(RecoveryWarning, match="missing"):
            assert store.load("ghost", "d") is None
        digest = store.save("r1", np.ones(4))
        path = store.path_for("r1")
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.warns(RecoveryWarning, match="unreadable"):
            assert store.load("r1", digest) is None
        store.save("r2", np.ones(4))
        with pytest.warns(RecoveryWarning, match="digest"):
            assert store.load("r2", "not-the-digest") is None


class TestSynthesis:
    def test_replay_error_mimics_original(self):
        err = replay_error("ConvergenceError", "diverged")
        assert type(err).__name__ == "ConvergenceError"
        assert str(err) == "diverged"
        assert replay_error("ConvergenceError", "x").__class__ is err.__class__

    def test_synthesize_ok_attempt(self):
        x = np.arange(3.0)
        result = synthesize_result(
            {"kind": "ok", "iterations": 17,
             "report": {"retries": 2, "degraded": False,
                        "virtual_time_s": 0.5},
             "bounds": [0.1, 3.9], "error_class": ""}, x=x)
        assert result.kind == "ok" and result.iterations == 17
        assert result.report.retries == 2
        assert result.report.result.eigen_bounds == (0.1, 3.9)
        assert result.report.x is x

    def test_synthesize_failed_attempt(self):
        result = synthesize_result(
            {"kind": "fatal", "iterations": 0, "report": None,
             "bounds": None, "error_class": "ConfigurationError",
             "error_message": "bad deck"})
        assert result.report is None
        assert result.error_class == "ConfigurationError"

    def test_deck_fingerprint_is_content_hash(self):
        assert deck_fingerprint("abc") == deck_fingerprint("abc")
        assert deck_fingerprint("abc") != deck_fingerprint("abd")
        assert len(deck_fingerprint("abc")) == 64


# -- engine crash/replay semantics ---------------------------------------------

CG_DECK = CROOKED_PIPE_DECK.format(n=12).replace("use_ppcg", "use_cg")
CKPT_DECK = CG_DECK.replace(
    "*endtea", "tl_checkpoint_interval=3\ntl_checkpoint_dir=auto\n*endtea")


def _requests(count, *, deck=CG_DECK, keys=()):
    # Serial arrivals (each solve finishes before the next lands) so any
    # record-stream prefix is a valid crash state for a shorter workload.
    return [SolveRequest(
        request_id=f"req-{i:03d}", tenant="acme", arrival_s=i * 0.5,
        deck_text=deck, n=12, max_attempts=2,
        idempotency_key=keys[i] if i < len(keys) else "")
        for i in range(count)]


def _engine(root, **kw):
    return ServiceEngine(
        ServiceConfig(workers=2, quota_rate=400.0, quota_burst=10.0, **kw),
        journal=RequestJournal(root / "wal"),
        results=ResultStore(root / "results"),
        checkpoint_root=root / "checkpoints")


class TestEngineReplay:
    def test_full_replay_is_byte_identical_and_solve_free(self, tmp_path):
        first = _engine(tmp_path)
        golden = first.run(_requests(3))
        first.journal.close()
        again = _engine(tmp_path)
        replayed = again.run(_requests(3))
        again.journal.close()
        assert [o.to_dict() for o in replayed] == \
            [o.to_dict() for o in golden]
        rec = again.recovery_summary()
        assert rec["replayed_attempts"] == 3        # nothing re-solved
        assert again.results.saves == 0             # no new side effects
        assert np.array_equal(replayed[0].x, golden[0].x)
        # ... and idempotent: the replay appended nothing, so a second
        # restart replays the same journal to the same outcomes.
        records, _ = scan_journal(tmp_path / "wal")
        third = _engine(tmp_path)
        assert [o.to_dict() for o in third.run(_requests(3))] == \
            [o.to_dict() for o in golden]
        third.journal.close()
        assert scan_journal(tmp_path / "wal")[0] == records
        assert third.recovery_summary() == rec

    def test_partial_prefix_replays_then_runs_live(self, tmp_path):
        first = _engine(tmp_path)
        before = first.run(_requests(2))
        first.journal.close()
        again = _engine(tmp_path)
        outcomes = again.run(_requests(4))
        again.journal.close()
        assert [o.to_dict() for o in before] == \
            [o.to_dict() for o in outcomes[:2]]
        assert again.recovery_summary()["replayed_attempts"] == 2
        assert all(o.status == "completed" for o in outcomes)

    def test_idempotency_key_dedup_across_restart(self, tmp_path):
        first = _engine(tmp_path)
        first.run(_requests(1, keys=["golden"]))
        first.journal.close()
        again = _engine(tmp_path)
        outcomes = again.run(_requests(2, keys=["golden", "golden"]))
        again.journal.close()
        dup = outcomes[1]
        assert dup.status == "completed" and dup.deduplicated
        assert dup.attempts == 0                    # acknowledged, not solved
        assert np.array_equal(dup.x, outcomes[0].x)
        assert again.recovery_summary()["deduplicated"] == 1

    def test_damaged_result_store_resolves_with_digest_check(self, tmp_path):
        first = _engine(tmp_path)
        golden = first.run(_requests(1))
        first.journal.close()
        first.results.path_for("req-000").unlink()  # lose the durable shard
        again = _engine(tmp_path)
        with pytest.warns(RecoveryWarning, match="missing"):
            outcomes = again.run(_requests(1))
        again.journal.close()
        assert np.array_equal(outcomes[0].x, golden[0].x)

    def test_mid_solve_crash_resumes_from_guard_shards(self, tmp_path):
        golden_engine = _engine(tmp_path / "golden")
        golden = golden_engine.run(_requests(2, deck=CKPT_DECK))
        golden_engine.journal.close()
        records = golden_engine.journal.records
        # Crash state: everything up to (and including) req-001's
        # dispatch, nothing after — the classic in-flight victim.  Guard
        # shards and req-000's result shard survive from the golden tree.
        cut = next(i for i, r in enumerate(records)
                   if r["type"] == "dispatched"
                   and r["request_id"] == "req-001") + 1
        crashed_wal = RequestJournal(tmp_path / "golden" / "wal2")
        for rec in records[:cut]:
            crashed_wal.append(rec)
        crashed_wal.close()
        survivor = ServiceEngine(
            ServiceConfig(workers=2, quota_rate=400.0, quota_burst=10.0),
            journal=RequestJournal(tmp_path / "golden" / "wal2"),
            results=golden_engine.results,
            checkpoint_root=tmp_path / "golden" / "checkpoints")
        outcomes = survivor.run(_requests(2, deck=CKPT_DECK))
        survivor.journal.close()
        rec = survivor.recovery_summary()
        assert rec["resumed_requests"] == ["req-001"]
        assert [o.to_dict() for o in outcomes] == \
            [o.to_dict() for o in golden]           # resume is bit-identical
        assert np.array_equal(outcomes[1].x, golden[1].x)
        assert survivor.journal.records == records  # same history, no fork


# -- the dispatch supervisor ---------------------------------------------------


class TestSupervisedToken:
    def test_trip_raises_at_next_boundary(self):
        token = SupervisedToken(CancelToken())
        token.check(0)
        token.trip("watchdog fired")
        with pytest.raises(WorkerStuck, match="watchdog fired"):
            token.check(1)
        assert token.heartbeats == 2

    def test_iteration_allowance(self):
        token = SupervisedToken(CancelToken(), iteration_allowance=3)
        for i in range(3):
            token.check(i)
        with pytest.raises(WorkerStuck, match="allowance"):
            token.check(3)

    def test_worker_stuck_is_a_cancelled(self):
        assert issubclass(WorkerStuck, Cancelled)

    def test_inner_cancel_still_wins(self):
        inner = CancelToken()
        token = SupervisedToken(inner)
        inner.cancel("client gave up")
        token.trip("also stuck")
        with pytest.raises(Cancelled) as err:
            token.check(0)
        assert not isinstance(err.value, WorkerStuck)

    def test_engine_stuck_dispatch_hedged(self, tmp_path):
        # An absurdly small allowance declares every first dispatch
        # stuck; the engine must hedge and still classify terminally.
        engine = _engine(tmp_path, stuck_after_s=1e-9)
        outcomes = engine.run(_requests(1))
        engine.journal.close()
        assert outcomes[0].status == "failed"
        counters = engine.metrics.snapshot()["counters"]
        assert counters["service.stuck"] >= 1
        kinds = [r["kind"] for r in engine.journal.records
                 if r["type"] == "attempt"]
        assert kinds and all(k == "stuck" for k in kinds)
