"""Analyzer configuration, read from ``[tool.repro-analysis]`` in pyproject.

All knobs have in-code defaults so the analyzer runs on any tree without a
config file (the test-suite exercises it on synthetic temp directories).
"""

from __future__ import annotations

import fnmatch
import tomllib
from dataclasses import dataclass, field
from pathlib import Path

#: Receiver names whose method calls the cost model ignores: preconditioner
#: applications are accounted separately from the iteration budget (the
#: paper's budgets are for the un-preconditioned iteration skeleton), and
#: kernel backend calls (``kernels``) are rank-local compute by contract
#: (:class:`repro.kernels.base.KernelBackend` has no communicator).
DEFAULT_IGNORE_RECEIVERS = frozenset(
    {"M", "local_M", "cheby", "precond", "preconditioner", "_inner",
     "kernels"})

#: Path globs (posix, matched against the file path) that mark *solver*
#: modules — only these are required to carry a ``COMM_CONTRACT``.
DEFAULT_SOLVER_GLOBS = ("*/solvers/*.py",)

#: Path globs of the sanctioned mixed-precision layer: RPR005 allows
#: single-precision dtypes *only* here (:mod:`repro.numerics` owns the
#: working-dtype knob; everywhere else a ``float32`` literal is still
#: accidental precision drift).
DEFAULT_MIXED_PRECISION_GLOBS = ("*/numerics/*.py",)

#: Path globs exempt from the SPMD rules (RPR009-RPR011): the comm
#: substrate itself implements the primitives those rules reason about
#: (rank-switched mailbox plumbing *is* its job, not a divergence bug).
DEFAULT_SPMD_EXEMPT_GLOBS = ("*/comm/*.py",)

#: Path globs excluded from analysis entirely.  Mutation fixtures are
#: deliberately-buggy rank programs checked in as rule test vectors; the
#: production gate must not trip over them.
DEFAULT_EXCLUDE_GLOBS = ("*/fixtures/*",)


@dataclass
class AnalysisConfig:
    """Resolved analyzer settings."""

    paths: tuple[str, ...] = ("src/repro",)
    baseline: str = "analysis-baseline.json"
    solver_globs: tuple[str, ...] = DEFAULT_SOLVER_GLOBS
    mixed_precision_globs: tuple[str, ...] = DEFAULT_MIXED_PRECISION_GLOBS
    spmd_exempt_globs: tuple[str, ...] = DEFAULT_SPMD_EXEMPT_GLOBS
    exclude: tuple[str, ...] = DEFAULT_EXCLUDE_GLOBS
    disable: tuple[str, ...] = ()
    select: tuple[str, ...] = ()
    ignore_receivers: frozenset[str] = DEFAULT_IGNORE_RECEIVERS
    require_dtype: bool = False
    root: Path = field(default_factory=Path.cwd)

    def rule_enabled(self, code: str) -> bool:
        if self.select:
            return code in self.select
        return code not in self.disable

    def is_solver_path(self, path: Path) -> bool:
        posix = path.as_posix()
        return any(fnmatch.fnmatch(posix, g) for g in self.solver_globs)

    def is_mixed_precision_path(self, path: Path) -> bool:
        """True when ``path`` belongs to the sanctioned mixed-precision layer."""
        posix = path.as_posix()
        return any(fnmatch.fnmatch(posix, g)
                   for g in self.mixed_precision_globs)

    def is_spmd_exempt(self, path: Path) -> bool:
        """True when ``path`` is exempt from the SPMD rules (RPR009-011)."""
        posix = path.as_posix()
        return any(fnmatch.fnmatch(posix, g) for g in self.spmd_exempt_globs)

    def is_excluded(self, path: Path) -> bool:
        """True when ``path`` must not be analyzed at all."""
        posix = path.as_posix()
        return any(fnmatch.fnmatch(posix, g) for g in self.exclude)

    @classmethod
    def from_pyproject(cls, root: Path | None = None) -> "AnalysisConfig":
        """Load config from ``<root>/pyproject.toml`` (defaults if absent)."""
        root = Path(root) if root is not None else Path.cwd()
        pyproject = root / "pyproject.toml"
        table: dict = {}
        if pyproject.is_file():
            with open(pyproject, "rb") as fh:
                data = tomllib.load(fh)
            table = data.get("tool", {}).get("repro-analysis", {})
        return cls(
            paths=tuple(table.get("paths", ("src/repro",))),
            baseline=table.get("baseline", "analysis-baseline.json"),
            solver_globs=tuple(
                table.get("solver-paths", DEFAULT_SOLVER_GLOBS)),
            mixed_precision_globs=tuple(
                table.get("mixed-precision-paths",
                          DEFAULT_MIXED_PRECISION_GLOBS)),
            spmd_exempt_globs=tuple(
                table.get("spmd-exempt-paths", DEFAULT_SPMD_EXEMPT_GLOBS)),
            exclude=tuple(table.get("exclude", DEFAULT_EXCLUDE_GLOBS)),
            disable=tuple(table.get("disable", ())),
            select=tuple(table.get("select", ())),
            ignore_receivers=frozenset(
                table.get("ignore-receivers", DEFAULT_IGNORE_RECEIVERS)),
            require_dtype=bool(table.get("require-dtype", False)),
            root=root,
        )
