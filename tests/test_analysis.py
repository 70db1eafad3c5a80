"""Tests for the ``repro.analysis`` communication-contract linter.

Covers: each rule on small synthetic positive/negative snippets, the
operator cost-table derivation, baseline and inline suppression, JSON
output, the tier-1 lint gate over ``src/repro``, the contract-presence
requirement for every solver module, and the dynamic ``--verify`` bridge
on a 32x32 crooked-pipe problem.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    AnalysisConfig,
    analyze_paths,
    validate_contract,
    verify_contracts,
)
from repro.analysis.baseline import load_baseline, write_baseline
from repro.analysis.cli import main as cli_main
from repro.analysis.costmodel import build_operator_table
from repro.analysis.report import render_json

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src" / "repro"


def write_solver(tmp_path: Path, source: str, name: str = "mod.py") -> Path:
    """Drop a synthetic module into a ``solvers/`` dir (matches the
    default solver glob) and return its path."""
    d = tmp_path / "solvers"
    d.mkdir(exist_ok=True)
    path = d / name
    path.write_text(textwrap.dedent(source))
    return path


def run(tmp_path: Path, **kwargs):
    return analyze_paths([tmp_path], AnalysisConfig(root=tmp_path), **kwargs)


def codes(result) -> list[str]:
    return [f.code for f in result.findings]


# -- comm-contract rule (RPR001/002/003/008) -----------------------------------


def test_missing_contract_flagged(tmp_path):
    write_solver(tmp_path, """
        def my_solve(op, b):
            while True:
                op.apply(b, b)
    """)
    assert codes(run(tmp_path)) == ["RPR001"]


def test_conforming_module_is_clean(tmp_path):
    write_solver(tmp_path, """
        COMM_CONTRACT = {"solver": "my", "halo_exchanges_per_iter": 1,
                         "allreduces_per_iter": 2, "halo_depth": 1}

        def my_solve(op, b, max_iters=10):
            it = 0
            while it < max_iters:
                op.apply(b, b)
                pw = op.dots([(b, b)])
                rz = op.dots([(b, b)])
                it += 1
    """)
    assert codes(run(tmp_path)) == []


def test_excess_allreduce_flagged(tmp_path):
    write_solver(tmp_path, """
        COMM_CONTRACT = {"solver": "my", "halo_exchanges_per_iter": 1,
                         "allreduces_per_iter": 2, "halo_depth": 1}

        def my_solve(op, b, max_iters=10):
            it = 0
            while it < max_iters:
                op.apply(b, b)
                pw = op.dots([(b, b)])
                rz = op.dots([(b, b)])
                op.comm.allreduce(0.0)   # one too many
                it += 1
    """)
    assert codes(run(tmp_path)) == ["RPR002"]


def test_excess_halo_exchange_flagged(tmp_path):
    write_solver(tmp_path, """
        COMM_CONTRACT = {"solver": "my", "halo_exchanges_per_iter": 1,
                         "allreduces_per_iter": 1, "halo_depth": 1}

        def my_solve(op, b, max_iters=10):
            it = 0
            while it < max_iters:
                op.apply(b, b)
                op.residual(b, b, out=b)   # second hidden exchange
                rr = op.dot(b, b)
                it += 1
    """)
    assert codes(run(tmp_path)) == ["RPR003"]


def test_same_comm_outside_recovery_scope_flagged(tmp_path):
    # An inline true-residual replay exceeds both budgets — which is why
    # the real one is issued from repro.solvers.defences, under a rerouted
    # event scope, and not from a solver's hot loop.
    write_solver(tmp_path, """
        COMM_CONTRACT = {"solver": "my", "halo_exchanges_per_iter": 1,
                         "allreduces_per_iter": 2, "halo_depth": 1}

        def my_solve(op, b, max_iters=10):
            it = 0
            while it < max_iters:
                op.apply(b, b)
                pw = op.dots([(b, b)])
                rz = op.dots([(b, b)])
                if it % 8 == 0:
                    op.residual(b, b, out=b)
                    check = op.dots([(b, b)])
                it += 1
    """)
    assert sorted(codes(run(tmp_path))) == ["RPR002", "RPR003"]


def test_branches_count_max_not_sum(tmp_path):
    write_solver(tmp_path, """
        COMM_CONTRACT = {"solver": "my", "halo_exchanges_per_iter": 1,
                         "allreduces_per_iter": 1, "halo_depth": 1}

        def my_solve(op, b, identity=True, max_iters=10):
            it = 0
            while it < max_iters:
                op.apply(b, b)
                if identity:
                    rz = op.dots([(b, b)])
                else:
                    rz = op.dots([(b, b), (b, b)])
                it += 1
    """)
    assert codes(run(tmp_path)) == []


def test_comm_in_nested_loop_is_unbounded(tmp_path):
    write_solver(tmp_path, """
        COMM_CONTRACT = {"solver": "my", "halo_exchanges_per_iter": 1,
                         "allreduces_per_iter": 99, "halo_depth": 1}

        def my_solve(op, b, max_iters=10):
            it = 0
            while it < max_iters:
                for _ in range(3):
                    op.comm.allreduce(0.0)
                it += 1
    """)
    result = run(tmp_path)
    assert codes(result) == ["RPR002"]
    assert "nested loop" in result.findings[0].message


def test_local_helper_followed_one_level(tmp_path):
    # The allreduce hidden inside a module-local helper class is charged
    # to the loop (mirrors DeflationSpace.project in deflated CG).
    write_solver(tmp_path, """
        COMM_CONTRACT = {"solver": "my", "halo_exchanges_per_iter": 1,
                         "allreduces_per_iter": 1, "halo_depth": 1}

        class Space:
            def project(self, v):
                return self.op.comm.allreduce(v)

        def my_solve(op, b, space, max_iters=10):
            it = 0
            while it < max_iters:
                op.apply(b, b)
                space.project(b)
                rz = op.dots([(b, b)])
                it += 1
    """)
    assert codes(run(tmp_path)) == ["RPR002"]


def test_preconditioner_receiver_ignored(tmp_path):
    write_solver(tmp_path, """
        COMM_CONTRACT = {"solver": "my", "halo_exchanges_per_iter": 1,
                         "allreduces_per_iter": 0, "halo_depth": 1}

        class Expensive:
            def apply(self, r, z):
                return self.op.comm.allreduce(r)

        def my_solve(op, b, M, max_iters=10):
            it = 0
            while it < max_iters:
                op.apply(b, b)
                M.apply(b, b)     # preconditioner cost budgeted separately
                it += 1
    """)
    assert codes(run(tmp_path)) == []


def test_malformed_contract_flagged(tmp_path):
    write_solver(tmp_path, """
        COMM_CONTRACT = {"solver": "my", "halo_exchanges_per_iter": 1,
                         "allreduces_per_iter": 2, "halo_depth": 1,
                         "made_up_key": 7}

        def my_solve(op, b):
            while True:
                op.apply(b, b)
    """)
    result = run(tmp_path)
    assert codes(result) == ["RPR008"]
    assert "made_up_key" in result.findings[0].message


def test_non_literal_contract_flagged(tmp_path):
    write_solver(tmp_path, """
        N = 2
        COMM_CONTRACT = {"solver": "my", "halo_exchanges_per_iter": 1,
                         "allreduces_per_iter": N, "halo_depth": 1}

        def my_solve(op, b):
            while True:
                op.apply(b, b)
    """)
    assert codes(run(tmp_path)) == ["RPR008"]


def test_hot_function_not_found_flagged(tmp_path):
    write_solver(tmp_path, """
        COMM_CONTRACT = {"solver": "my", "halo_exchanges_per_iter": 1,
                         "allreduces_per_iter": 2, "halo_depth": 1,
                         "hot_function": "Missing.run"}

        def my_solve(op, b):
            while True:
                op.apply(b, b)
    """)
    assert codes(run(tmp_path)) == ["RPR008"]


def test_delegating_contract_skips_static_loop_check(tmp_path):
    write_solver(tmp_path, """
        COMM_CONTRACT = {"solver": "my", "halo_exchanges_per_iter": 1,
                         "allreduces_per_iter": 2, "halo_depth": 1,
                         "hot_function": None, "delegates_to": "other.mod"}

        def my_solve(op, b):
            pass
    """)
    assert codes(run(tmp_path)) == []


def test_validate_contract_rejects_bad_values():
    base = {"solver": "x", "halo_exchanges_per_iter": 1,
            "allreduces_per_iter": 1, "halo_depth": 1}
    assert validate_contract(base) == []
    assert validate_contract({**base, "halo_depth": 0})
    assert validate_contract({**base, "allreduces_per_iter": -1})
    assert validate_contract({k: v for k, v in base.items()
                              if k != "solver"})


# -- injection into the *real* CG source (acceptance criterion) ----------------


def _copy_real_solver(tmp_path: Path, inject: bool) -> Path:
    d = tmp_path / "solvers"
    d.mkdir(exist_ok=True)
    (d / "operator.py").write_text((SRC / "solvers/operator.py").read_text())
    src = (SRC / "solvers/cg.py").read_text()
    if inject:
        marker = "            pw = op.apply_dot(s.p, s.w)"
        assert marker in src
        src = src.replace(
            marker, marker + "\n            op.comm.allreduce(0.0)")
    (d / "cg.py").write_text(src)
    return d


def test_real_cg_copy_is_clean(tmp_path):
    d = _copy_real_solver(tmp_path, inject=False)
    assert codes(run(d)) == []


def test_injected_allreduce_in_real_cg_fails(tmp_path):
    d = _copy_real_solver(tmp_path, inject=True)
    result = run(d)
    assert codes(result) == ["RPR002"]
    # ... and through the CLI, with a non-zero exit status.
    assert cli_main([str(d), "--root", str(tmp_path)]) == 1


# -- hygiene rules (RPR004-007) ------------------------------------------------


def test_allocation_in_hot_loop_flagged(tmp_path):
    write_solver(tmp_path, """
        import numpy as np

        COMM_CONTRACT = {"solver": "my", "halo_exchanges_per_iter": 1,
                         "allreduces_per_iter": 1, "halo_depth": 1}

        def my_solve(op, b, max_iters=10):
            r = op.new_field()          # pre-loop allocation is fine
            it = 0
            while it < max_iters:
                w = np.zeros(b.shape)   # churns the allocator every iter
                p = b.copy()
                op.apply(b, r)
                rr = op.dot(b, b)
                it += 1
    """)
    result = run(tmp_path)
    assert codes(result) == ["RPR004", "RPR004"]
    assert "np.zeros" in result.findings[0].message


def test_dtype_drift_flagged(tmp_path):
    (tmp_path / "kern.py").write_text(textwrap.dedent("""
        import numpy as np
        x = np.zeros(4, dtype=np.float32)
        y = np.array([1.0], dtype="float32")
    """))
    result = run(tmp_path)
    assert codes(result) == ["RPR005", "RPR005"]


def test_mutable_default_flagged(tmp_path):
    (tmp_path / "m.py").write_text(
        "def f(x, history=[]):\n    return history\n")
    assert codes(run(tmp_path)) == ["RPR006"]


def test_bare_except_flagged(tmp_path):
    (tmp_path / "m.py").write_text(textwrap.dedent("""
        try:
            x = 1
        except:
            pass
    """))
    assert codes(run(tmp_path)) == ["RPR007"]


# -- suppression and baseline --------------------------------------------------


def test_inline_suppression(tmp_path):
    (tmp_path / "m.py").write_text(
        "def f(x, h=[]):  # repro: ignore[RPR006]\n    return h\n")
    result = run(tmp_path)
    assert result.findings == []
    assert [f.code for f in result.suppressed] == ["RPR006"]


def test_inline_suppression_wrong_code_does_not_silence(tmp_path):
    (tmp_path / "m.py").write_text(
        "def f(x, h=[]):  # repro: ignore[RPR007]\n    return h\n")
    assert codes(run(tmp_path)) == ["RPR006"]


def test_baseline_roundtrip(tmp_path):
    (tmp_path / "m.py").write_text("def f(x, h=[]):\n    return h\n")
    first = run(tmp_path)
    assert codes(first) == ["RPR006"]
    baseline_path = tmp_path / "analysis-baseline.json"
    write_baseline(baseline_path, first.findings)
    second = run(tmp_path, baseline=load_baseline(baseline_path))
    assert second.findings == []
    assert [f.code for f in second.baselined] == ["RPR006"]
    # A *new* finding still fails even with the old baseline.
    (tmp_path / "m.py").write_text(
        "def f(x, h=[]):\n    return h\n\ndef g(y={}):\n    return y\n")
    third = run(tmp_path, baseline=load_baseline(baseline_path))
    assert [f.symbol for f in third.findings] == ["g"]


# -- reporters and CLI ---------------------------------------------------------


def test_json_report_shape(tmp_path):
    (tmp_path / "m.py").write_text("def f(x, h=[]):\n    return h\n")
    payload = json.loads(render_json(run(tmp_path)))
    assert payload["ok"] is False
    assert payload["findings"][0]["code"] == "RPR006"
    assert payload["findings"][0]["fingerprint"].startswith("RPR006:")


def test_cli_json_and_exit_codes(tmp_path, capsys):
    (tmp_path / "m.py").write_text("x = 1\n")
    assert cli_main([str(tmp_path), "--root", str(tmp_path),
                     "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert cli_main(["--list-rules"]) == 0
    listing = capsys.readouterr().out
    for code in ["RPR001", "RPR004", "RPR005", "RPR006", "RPR007"]:
        assert code in listing


def test_cli_rejects_typos_instead_of_passing_silently(tmp_path, capsys):
    """Nonexistent paths, unknown rule codes and unknown solver names
    must be usage errors (exit 2), never a silent clean exit 0."""
    assert cli_main([str(tmp_path / "nope"), "--root", str(tmp_path)]) == 2
    assert cli_main([str(tmp_path), "--root", str(tmp_path),
                     "--select", "RPR999"]) == 2
    assert cli_main([str(tmp_path), "--root", str(tmp_path),
                     "--disable", "BOGUS"]) == 2
    assert cli_main(["--verify-only", "--verify-solver", "nope"]) == 2
    err = capsys.readouterr().err
    assert "no such path" in err and "RPR999" in err and "nope" in err


def test_cli_write_baseline(tmp_path, capsys):
    (tmp_path / "m.py").write_text("def f(x, h=[]):\n    return h\n")
    assert cli_main([str(tmp_path), "--root", str(tmp_path),
                     "--write-baseline"]) == 0
    capsys.readouterr()
    assert cli_main([str(tmp_path), "--root", str(tmp_path)]) == 0


# -- the operator cost table ---------------------------------------------------


def test_operator_table_derived_from_source():
    table = build_operator_table(SRC / "solvers/operator.py")
    assert table["apply"].halos == 1 and table["apply"].allreduces == 0
    assert table["residual"].halos == 1
    assert table["dot"].allreduces == 1
    assert table["dots"].allreduces == 1
    assert table["norm"].allreduces == 1
    assert not table["apply_noexchange"]


# -- the shipped tree (tier-1 lint gate) ---------------------------------------


def test_lint_gate_src_repro_is_clean():
    """Contract regressions anywhere in src/repro fail the test suite."""
    config = AnalysisConfig.from_pyproject(REPO_ROOT)
    baseline = load_baseline(REPO_ROOT / config.baseline)
    result = analyze_paths([SRC], config, baseline=baseline)
    assert result.findings == [], "\n".join(
        f"{f.location()}: {f.code} {f.message}" for f in result.findings)
    assert result.files_checked > 80


def test_every_solver_module_declares_contract():
    import repro.solvers as pkg

    with_solve = []
    for info in pkgutil.iter_modules(pkg.__path__):
        mod = importlib.import_module(f"repro.solvers.{info.name}")
        solves = [
            name for name, obj in vars(mod).items()
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__
            and name.endswith("_solve") and not name.startswith("_")
        ]
        if not solves:
            continue
        with_solve.append(info.name)
        contract = getattr(mod, "COMM_CONTRACT", None)
        assert contract is not None, f"{mod.__name__} lacks COMM_CONTRACT"
        assert validate_contract(contract) == [], mod.__name__
    assert sorted(with_solve) == [
        "cg", "cg_fused", "chebyshev", "deflation", "jacobi", "ppcg"]


# -- dynamic verification (--verify) -------------------------------------------


def test_verify_mode_confirms_paper_budgets():
    """Measured CG counts: 1 halo + 2 allreduces per iteration (1 for
    fused CG) on a 32x32 crooked-pipe solve — the paper's headline
    budget, cross-checked against the declared contracts."""
    reports = {r.name: r for r in verify_contracts(n=32)}
    assert all(r.ok for r in reports.values()), [
        (r.name, r.measured_allreduces, r.measured_halos)
        for r in reports.values() if not r.ok]
    cg = reports["cg"]
    assert cg.measured_allreduces == pytest.approx(2.0)
    assert cg.measured_halos == pytest.approx(1.0)
    fused = reports["cg_fused"]
    assert fused.measured_allreduces == pytest.approx(1.0)
    assert fused.measured_halos == pytest.approx(1.0)
    # Matrix powers amortise the deep halo exchange (paper SIV-C2).
    assert reports["chebyshev[depth=4]"].measured_halos == pytest.approx(0.25)
    assert reports["dcg"].measured_allreduces == pytest.approx(3.0)
    # The 7-point operator keeps the 2-D budgets; its matrix powers too.
    assert reports["cg[3d]"].measured_halos == pytest.approx(1.0)
    assert reports["ppcg[3d,depth=2]"].measured_halos == pytest.approx(3.0)


def test_verify_detects_contract_drift(monkeypatch):
    """If a contract drifts from the measured reality, verify fails."""
    import repro.solvers.cg as cg_mod

    wrong = dict(cg_mod.COMM_CONTRACT, allreduces_per_iter=1)
    monkeypatch.setattr(cg_mod, "COMM_CONTRACT", wrong)
    reports = verify_contracts(n=32, names=["cg"])   # 2-D and 3-D
    assert [r.name for r in reports] == ["cg", "cg[3d]"]
    assert not any(r.ok for r in reports)


def test_cli_verify_only(capsys):
    assert cli_main(["--verify-only", "--verify-solver", "cg",
                     "--verify-solver", "cg_fused"]) == 0
    out = capsys.readouterr().out
    assert "[ok] cg:" in out and "[ok] cg_fused:" in out
