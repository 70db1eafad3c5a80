"""Numbered, byte-deterministic result ledgers.

Every harness that leaves a ledger of record behind — ``BENCH_<n>.json``,
``SERVICE_<n>.json``, ``SOAK_SERVICE_<n>.json``, ``CHAOS_<n>.json``,
``SOAK_<n>.json`` — writes it through here: sorted keys, two-space indent,
one trailing newline, and either a pinned index or the next free one (so
successive runs never clobber each other's ledgers).
"""

from __future__ import annotations

import json
import re
from pathlib import Path


def to_json(doc) -> str:
    """Deterministic JSON text of a ledger document."""
    return json.dumps(doc, indent=2, sort_keys=True)


def next_ledger_path(out_dir: Path, prefix: str) -> Path:
    """The first unused ``<prefix>_<n>.json`` path under ``out_dir``."""
    out_dir = Path(out_dir)
    pattern = re.compile(rf"{prefix}_(\d+)\.json$")
    taken = [int(m.group(1)) for p in out_dir.glob(f"{prefix}_*.json")
             if (m := pattern.match(p.name))]
    return out_dir / f"{prefix}_{max(taken, default=-1) + 1}.json"


def write_ledger(doc: dict, out_dir: Path, prefix: str,
                 index: int | None = None) -> Path:
    """Persist ``doc`` as ``<prefix>_<index>.json``; ``index=None`` takes
    the next free slot."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = (out_dir / f"{prefix}_{index}.json" if index is not None
            else next_ledger_path(out_dir, prefix))
    path.write_text(to_json(doc) + "\n", encoding="utf-8")
    return path
