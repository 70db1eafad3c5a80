"""Shared benchmark fixtures and the results directory."""

from __future__ import annotations

from pathlib import Path

import pytest

#: Where the ablation benches write their CSVs (the figures are
#: written by `repro report` alone).
RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


def write_result(name: str, text: str) -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(text + "\n", encoding="utf-8")
    return path
