"""The service sweep's acceptance gates (``repro.harness.service_sweep``).

The three load-bearing claims: same-seed sweeps are byte-identical,
every request ends in exactly one classified terminal status (zero
hangs, zero unclassified failures), and every served solution passes
the differential oracle.  Ledger naming/schema and the CLI ride along.
"""

from __future__ import annotations

import json

import pytest

from repro.harness import ledger, service_sweep
from repro.service import STATUSES

pytestmark = pytest.mark.slow

SEED = 20170905
COUNT = 60


@pytest.fixture(scope="module")
def result():
    return service_sweep.run_service_sweep(SEED, COUNT)


class TestDeterminism:
    def test_same_seed_byte_identical(self, result):
        again = service_sweep.run_service_sweep(SEED, COUNT)
        assert ledger.to_json(again.as_dict()) == \
            ledger.to_json(result.as_dict())

    def test_request_generation_seeded(self):
        a = service_sweep.generate_requests(7, 20)
        b = service_sweep.generate_requests(7, 20)
        assert a == b
        assert a != service_sweep.generate_requests(8, 20)


class TestClassification:
    def test_every_request_terminal_and_classified(self, result):
        assert len(result.outcomes) == COUNT
        for o in result.outcomes:
            assert o["status"] in STATUSES, o
            if o["status"] == "failed":
                assert o["error_class"], o          # structured, never bare
            if o["status"] == "shed":
                assert o["shed_reason"] in ("quota", "queue_full")
            else:
                assert o["finish_s"] >= o["arrival_s"]

    def test_workload_exercises_every_status(self, result):
        seen = {o["status"] for o in result.outcomes}
        assert seen == set(STATUSES), sorted(seen)

    def test_sweep_passes_slo_and_oracle(self, result):
        assert result.violations == []
        assert result.passed and result.exit_code == 0
        assert result.oracle["violations"] == 0
        assert result.oracle["checked"] > 0

    def test_stats_shape(self, result):
        s = result.stats
        assert s["submitted"] == COUNT
        assert sum(s["by_status"].values()) == COUNT
        assert 0 <= s["shed_rate"] <= 1
        assert s["latency_p99_s"] >= s["latency_p50_s"] >= 0
        assert set(s["cache"]) >= {"hits", "misses", "evictions",
                                   "corruptions"}
        assert s["cache"]["hits"] > 0           # eigenbounds reuse happened


class TestLedgerIO:
    def test_schema_and_naming(self, result, tmp_path):
        path = ledger.write_ledger(result.as_dict(), tmp_path, "SERVICE")
        assert path.name == "SERVICE_0.json"
        data = json.loads(path.read_text())
        assert data["schema"] == "repro.service/v1"
        assert len(data["outcomes"]) == COUNT
        next_path = ledger.next_ledger_path(tmp_path, "SERVICE")
        assert next_path.name == "SERVICE_1.json"

    def test_pinned_index(self, result, tmp_path):
        path = ledger.write_ledger(result.as_dict(), tmp_path, "SERVICE",
                                   index=9)
        assert path.name == "SERVICE_9.json"

    def test_render_summarises(self, result):
        out = service_sweep.render(result)
        assert "PASS" in out
        for status in STATUSES:
            assert status in out


def test_committed_ledger_matches_regeneration():
    """The committed SERVICE_9.json is exactly what its pinned seed and
    request count regenerate — the byte-determinism acceptance gate."""
    from pathlib import Path

    pinned = Path(__file__).resolve().parents[1] / "SERVICE_9.json"
    data = json.loads(pinned.read_text())
    fresh = service_sweep.run_service_sweep(data["seed"], data["requests"])
    assert ledger.to_json(fresh.as_dict()) + "\n" == pinned.read_text()


def test_cli_main_writes_ledger(tmp_path, capsys):
    from repro.cli.main import main
    rc = main(["serve", "--seed", "3", "--requests", "30",
               "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert "ledger written to" in out
    data = json.loads((tmp_path / "SERVICE_0.json").read_text())
    assert data["seed"] == 3 and data["requests"] == 30
    assert rc in (0, 1)  # small unpinned runs may legitimately miss SLOs
    assert rc == (0 if data["violations"] == [] else 1)
