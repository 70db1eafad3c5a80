"""The committed ``results/`` are what ``repro report`` writes today.

Every figure of :data:`repro.harness.report.FIGURES` is rendered in
memory and compared byte for byte with its committed files, so a change
that moves a figure's bytes must re-record them (``make report``) in the
same commit.  ``trace_summary.txt`` holds wall-clock columns: only its
span names and counts are compared.  Two guards keep the table the one
writer: no harness module has a ``main`` of its own, and no bench writes
a figure's file.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

from repro.harness.report import FIGURES, trace_summary

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "results"


@pytest.mark.parametrize("name", list(FIGURES))
def test_figure_matches_committed_bytes(name, monkeypatch, capsys):
    """Each file matches; ``repro figure NAME`` prints the first, NAME's
    ``.txt`` (fig4: its ``.csv``)."""
    from repro.cli.main import main

    files = FIGURES[name]()
    for filename, text in files.items():
        committed = (RESULTS / filename).read_bytes()
        assert committed == (text + "\n").encode("utf-8"), \
            f"results/{filename} is stale: run `make report`"
    first = "fig4.csv" if name == "fig4" else f"{name.replace('-', '_')}.txt"
    assert next(iter(files)) == first
    monkeypatch.setitem(FIGURES, name, lambda: files)
    assert main(["figure", name]) == 0
    assert capsys.readouterr().out.encode("utf-8") == \
        (RESULTS / first).read_bytes()


def _span_counts(text: str) -> dict[str, str]:
    """``{span name: count}`` of a trace summary's span table."""
    table = text.split("\n\n")[1].splitlines()
    assert table[0].split("|")[0].strip() == "span"
    return {cells[0].strip(): cells[1].strip()
            for cells in (row.split("|") for row in table[2:])}


def test_trace_summary_spans_match_committed():
    committed = (RESULTS / "trace_summary.txt").read_text(encoding="utf-8")
    assert _span_counts(trace_summary()) == _span_counts(committed)


def test_harness_modules_define_no_main():
    for path in sorted((ROOT / "src" / "repro" / "harness").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            assert not (isinstance(node, ast.FunctionDef)
                        and node.name == "main"), path.name
            assert not (isinstance(node, ast.If)
                        and "__main__" in ast.unparse(node.test)), path.name


_FIGURE_FILE = re.compile(r"(table1|fig\d|future_solvers)\w*\.(txt|csv)")


def test_benches_write_no_figure_file():
    for path in sorted((ROOT / "benchmarks").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                assert not _FIGURE_FILE.fullmatch(node.value), \
                    f"{path.name} names {node.value}"
            if isinstance(node, ast.Call) and \
                    getattr(node.func, "id", None) == "write_result":
                assert path.name.startswith("test_ablation_"), path.name
