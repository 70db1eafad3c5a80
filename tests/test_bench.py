"""Ledger files (``repro.harness.ledger``).

Every harness that leaves a ledger of record behind writes it through
one module: deterministic JSON text, and either a pinned index or the
next free one, so successive runs never clobber each other's ledgers.
"""

import json

from repro.harness import ledger

#: A small ledger document: nested, unsorted keys, mixed value types.
DOC = {"schema": "repro.test/v1", "config": {"n": 12, "dtype": "float64"},
       "cases": [{"wall_s": 0.25, "name": "cg", "converged": True}]}


class TestDeterminism:
    def test_json_is_sorted_and_parseable(self):
        text = ledger.to_json(DOC)
        assert json.loads(text) == DOC
        assert text == json.dumps(DOC, indent=2, sort_keys=True)


class TestLedgerFiles:
    def test_next_ledger_path_scans_free_slot(self, tmp_path):
        assert ledger.next_ledger_path(tmp_path, "BENCH").name == "BENCH_0.json"
        (tmp_path / "BENCH_0.json").write_text("{}")
        (tmp_path / "BENCH_7.json").write_text("{}")
        assert ledger.next_ledger_path(tmp_path, "BENCH").name == "BENCH_8.json"

    def test_write_ledger_pins_explicit_index(self, tmp_path):
        path = ledger.write_ledger(DOC, tmp_path, "BENCH", index=8)
        assert path.name == "BENCH_8.json"
        assert path.read_text() == ledger.to_json(DOC) + "\n"
        assert json.loads(path.read_text())["schema"] == "repro.test/v1"
