"""Tests for the static SPMD rules (RPR009-RPR011).

Covers: each rule on synthetic positive/negative snippets, the transitive
(helper-call) variants, the checked-in mutation fixtures against their
golden report, the SPMD-exemption and exclusion globs, the real halo
modules staying clean, the RPR004 nested/async walker fix, and the
``--update-baseline`` CLI workflow.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.analysis import AnalysisConfig, analyze_paths
from repro.analysis.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "spmd_mutations"


def write_mod(tmp_path: Path, source: str, name: str = "mod.py") -> Path:
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return path


def run(tmp_path: Path, **kwargs):
    return analyze_paths([tmp_path], AnalysisConfig(root=tmp_path), **kwargs)


def codes(result) -> list[str]:
    return [f.code for f in result.findings]


# -- RPR009: collective divergence ---------------------------------------------


def test_rank_guarded_collective_flagged(tmp_path):
    write_mod(tmp_path, """
        def f(comm, x):
            if comm.rank == 0:
                return comm.allreduce(x)
            return 0.0
    """)
    assert codes(run(tmp_path)) == ["RPR009"]


def test_transitive_guard_through_helper_flagged(tmp_path):
    write_mod(tmp_path, """
        def _norm(comm, x):
            return comm.allreduce(x * x)

        def f(comm, x):
            me = comm.rank
            if me == 0:
                return _norm(comm, x)
            return 0.0
    """)
    result = run(tmp_path)
    assert codes(result) == ["RPR009"]
    # Provenance points at the helper *call site* inside the guard.
    assert result.findings[0].symbol == "f"


def test_symmetric_branches_are_clean(tmp_path):
    write_mod(tmp_path, """
        def f(comm, payload):
            if comm.rank == 0:
                return comm.bcast(payload)
            return comm.bcast(None)
    """)
    assert codes(run(tmp_path)) == []


def test_mismatched_reduce_op_flagged(tmp_path):
    write_mod(tmp_path, """
        def f(comm, x):
            if comm.rank == 0:
                return comm.allreduce(x, "max")
            return comm.allreduce(x, "sum")
    """)
    assert codes(run(tmp_path)) == ["RPR009", "RPR009"]


def test_early_exit_before_collective_flagged(tmp_path):
    write_mod(tmp_path, """
        def f(comm, x):
            if comm.rank == 0:
                return x
            comm.barrier()
            return x
    """)
    assert codes(run(tmp_path)) == ["RPR009"]


def test_symmetric_early_exit_is_clean(tmp_path):
    write_mod(tmp_path, """
        def f(comm, x):
            if comm.rank == 0:
                comm.barrier()
                return x
            comm.barrier()
            return x
    """)
    assert codes(run(tmp_path)) == []


def test_rank_bound_loop_flagged(tmp_path):
    write_mod(tmp_path, """
        def f(comm, x):
            for _ in range(comm.rank):
                comm.allreduce(x)
    """)
    assert codes(run(tmp_path)) == ["RPR009"]


def test_uniform_guard_is_clean(tmp_path):
    write_mod(tmp_path, """
        def f(comm, x, verbose):
            if verbose:
                return comm.allreduce(x)
            return comm.allreduce(x)
    """)
    assert codes(run(tmp_path)) == []


# -- RPR010: tag/peer mismatch -------------------------------------------------


def test_unreceived_tag_flagged(tmp_path):
    write_mod(tmp_path, """
        def exchange(comm, t, lo, hi):
            comm.send(lo, t.left, 1)
            comm.send(hi, t.right, 2)
            a = comm.recv(t.left, 1)
            b = comm.recv(t.right, 1)
            return a, b
    """)
    assert "RPR010" in codes(run(tmp_path))


def test_crossed_directions_flagged(tmp_path):
    # Tags balance as sets, but each recv listens for the tag of the
    # message travelling the *same* way it came from.
    write_mod(tmp_path, """
        def exchange(comm, t, lo, hi):
            comm.send(lo, t.left, 1)
            comm.send(hi, t.right, 2)
            a = comm.recv(t.left, 1)
            b = comm.recv(t.right, 2)
            return a, b
    """)
    result = run(tmp_path)
    assert codes(result) == ["RPR010", "RPR010"]
    assert "crossed halo directions" in result.findings[0].message


def test_canonical_exchange_is_clean(tmp_path):
    write_mod(tmp_path, """
        def exchange(comm, t, lo, hi):
            comm.send(lo, t.left, 1)
            comm.send(hi, t.right, 2)
            a = comm.recv(t.left, 2)
            b = comm.recv(t.right, 1)
            return a, b
    """)
    assert codes(run(tmp_path)) == []


def test_tags_balanced_across_helpers(tmp_path):
    # The send and its matching recv live in different helpers of one
    # exchange; RPR010 merges summaries across the local call graph.
    write_mod(tmp_path, """
        def _post(comm, t, lo, hi):
            comm.send(lo, t.left, 1)
            comm.send(hi, t.right, 2)

        def exchange(comm, t, lo, hi):
            _post(comm, t, lo, hi)
            a = comm.recv(t.left, 2)
            b = comm.recv(t.right, 1)
            return a, b
    """)
    assert codes(run(tmp_path)) == []


def test_symbolic_module_const_tags_resolve(tmp_path):
    write_mod(tmp_path, """
        TAG_L, TAG_R = 7, 8

        def exchange(comm, t, lo, hi):
            comm.send(lo, t.left, TAG_L)
            comm.send(hi, t.right, TAG_R)
            a = comm.recv(t.left, 8)
            b = comm.recv(t.right, TAG_L)
            return a, b
    """)
    assert codes(run(tmp_path)) == []


def test_master_worker_pattern_is_clean(tmp_path):
    write_mod(tmp_path, """
        def f(comm, obj):
            if comm.rank == 0:
                comm.send(obj, 1, 7)
                return None
            return comm.recv(0, 7)
    """)
    assert codes(run(tmp_path)) == []


# -- RPR011: non-blocking buffer aliasing --------------------------------------


def test_mutation_before_wait_flagged(tmp_path):
    write_mod(tmp_path, """
        def f(comm, a, dest):
            req = comm.isend(a[0, :], dest, 7)
            a[0, :] = 0.0
            req.wait()
    """)
    result = run(tmp_path)
    assert codes(result) == ["RPR011"]
    assert "mutated before the matching wait()" in result.findings[0].message


def test_staging_copy_is_clean(tmp_path):
    write_mod(tmp_path, """
        import numpy as np

        def f(comm, a, dest):
            req = comm.isend(np.ascontiguousarray(a[0, :]), dest, 7)
            a[0, :] = 0.0
            req.wait()
    """)
    assert codes(run(tmp_path)) == []


def test_dropped_request_flagged(tmp_path):
    write_mod(tmp_path, """
        def f(comm, source):
            req = comm.irecv(source, 9)
            return None
    """)
    assert codes(run(tmp_path)) == ["RPR011"]


def test_overwritten_request_flagged(tmp_path):
    write_mod(tmp_path, """
        def f(comm, a, dest):
            req = comm.isend(a[0, :], dest, 3)
            req = comm.isend(a[1, :], dest, 4)
            req.wait()
    """)
    result = run(tmp_path)
    assert codes(result) == ["RPR011"]
    assert "overwritten without wait()" in result.findings[0].message


def test_escaping_request_is_clean(tmp_path):
    # The begin/end split-phase idiom: handles escape into a dict the
    # caller completes later.
    write_mod(tmp_path, """
        def begin(comm, source, pending):
            pending["rx"] = comm.irecv(source, 9)
            return pending
    """)
    assert codes(run(tmp_path)) == []


def test_mutation_after_wait_is_clean(tmp_path):
    write_mod(tmp_path, """
        def f(comm, a, dest):
            req = comm.isend(a[0, :], dest, 7)
            req.wait()
            a[0, :] = 0.0
    """)
    assert codes(run(tmp_path)) == []


# -- scoping: exemption and exclusion globs ------------------------------------


def test_comm_substrate_is_exempt(tmp_path):
    d = tmp_path / "comm"
    d.mkdir()
    (d / "impl.py").write_text(textwrap.dedent("""
        def route(comm, x):
            if comm.rank == 0:
                return comm.allreduce(x)
            return 0.0
    """))
    assert codes(run(tmp_path)) == []
    # The same file outside comm/ is flagged.
    (tmp_path / "other.py").write_text((d / "impl.py").read_text())
    assert codes(run(tmp_path)) == ["RPR009"]


def test_fixture_exclusion_glob(tmp_path):
    d = tmp_path / "fixtures"
    d.mkdir()
    (d / "bad.py").write_text(textwrap.dedent("""
        def f(comm, x):
            if comm.rank == 0:
                return comm.allreduce(x)
            return 0.0
    """))
    assert codes(run(tmp_path)) == []
    cfg = AnalysisConfig(root=tmp_path, exclude=())
    assert codes(analyze_paths([tmp_path], cfg)) == ["RPR009"]


# -- mutation fixtures vs golden report ----------------------------------------


def test_mutation_fixtures_match_golden():
    cfg = AnalysisConfig(root=REPO_ROOT, exclude=())
    result = analyze_paths([FIXTURES], cfg)
    key = lambda d: (d["path"], d["line"], d["code"])  # noqa: E731
    got = sorted(
        ({"code": f.code, "path": f.path, "line": f.line, "symbol": f.symbol,
          "message": f.message}
         for f in result.findings), key=key)
    golden = sorted(json.loads((FIXTURES / "golden.json").read_text()),
                    key=key)
    assert got == golden


def test_every_spmd_rule_fires_in_fixtures():
    cfg = AnalysisConfig(root=REPO_ROOT, exclude=())
    found = {f.code for f in analyze_paths([FIXTURES], cfg).findings}
    assert {"RPR009", "RPR010", "RPR011"} <= found


def test_real_halo_modules_are_clean():
    src = REPO_ROOT / "src" / "repro"
    cfg = AnalysisConfig(root=REPO_ROOT)
    result = analyze_paths(
        [src / "mesh" / "halo.py"], cfg,
        rule_filter=lambda r: r.code in {"RPR009", "RPR010", "RPR011"})
    assert result.findings == []


# -- satellite: RPR004 walker covers nested and async defs ---------------------


def _solver(tmp_path: Path, source: str) -> Path:
    d = tmp_path / "solvers"
    d.mkdir(exist_ok=True)
    path = d / "mod.py"
    path.write_text(textwrap.dedent(source))
    return path


def test_rpr004_sees_nested_function(tmp_path):
    _solver(tmp_path, """
        import numpy as np

        COMM_CONTRACT = {"solver": "my", "halo_exchanges_per_iter": 1,
                         "allreduces_per_iter": 2, "halo_depth": 1}

        def my_solve(op, b, max_iters=10):
            def step():
                for _ in range(3):
                    w = np.zeros(4)
            it = 0
            while it < max_iters:
                op.apply(b, b)
                op.dots([(b, b)])
                it += 1
    """)
    result = run(tmp_path)
    assert codes(result) == ["RPR004"]
    assert result.findings[0].symbol == "my_solve.step"


def test_rpr004_sees_async_def(tmp_path):
    _solver(tmp_path, """
        import numpy as np

        COMM_CONTRACT = {"solver": "my", "halo_exchanges_per_iter": 1,
                         "allreduces_per_iter": 2, "halo_depth": 1}

        def my_solve(op, b, max_iters=10):
            it = 0
            while it < max_iters:
                op.apply(b, b)
                op.dots([(b, b)])
                it += 1

        async def drain(op):
            async for chunk in op.stream():
                buf = np.empty(8)
    """)
    result = run(tmp_path)
    assert codes(result) == ["RPR004"]
    assert result.findings[0].symbol == "drain"


def test_rpr004_nested_loop_not_double_reported(tmp_path):
    # The allocation sits in a closure's loop that is also reachable from
    # the enclosing function's walk — exactly one finding must emerge.
    _solver(tmp_path, """
        import numpy as np

        COMM_CONTRACT = {"solver": "my", "halo_exchanges_per_iter": 1,
                         "allreduces_per_iter": 2, "halo_depth": 1}

        def my_solve(op, b, max_iters=10):
            it = 0
            while it < max_iters:
                def inner():
                    for _ in range(2):
                        w = np.zeros(4)
                op.apply(b, b)
                op.dots([(b, b)])
                it += 1
    """)
    assert codes(run(tmp_path)) == ["RPR004"]


# -- satellite: --update-baseline workflow -------------------------------------


def test_update_baseline_roundtrip(tmp_path, capsys):
    (tmp_path / "mod.py").write_text(textwrap.dedent("""
        def f(comm, x):
            if comm.rank == 0:
                return comm.allreduce(x)
            return 0.0
    """))
    baseline = tmp_path / "analysis-baseline.json"

    # First update records the debt and reports it as added.
    rc = cli_main(["--root", str(tmp_path), str(tmp_path),
                   "--update-baseline"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "+1 added" in out and "-0 removed" in out
    first = baseline.read_bytes()

    # With the baseline in place the gate passes.
    assert cli_main(["--root", str(tmp_path), str(tmp_path)]) == 0
    capsys.readouterr()

    # Rewriting an unchanged tree is byte-identical (deterministic).
    rc = cli_main(["--root", str(tmp_path), str(tmp_path),
                   "--update-baseline"])
    assert rc == 0
    assert "+0 added" in capsys.readouterr().out
    assert baseline.read_bytes() == first

    # Fixing the bug then updating retires the entry.
    (tmp_path / "mod.py").write_text("def f():\n    return 0\n")
    rc = cli_main(["--root", str(tmp_path), str(tmp_path),
                   "--update-baseline"])
    assert rc == 0
    assert "-1 removed" in capsys.readouterr().out
    assert json.loads(baseline.read_text())["findings"] == []


def test_list_rules_includes_spmd_codes(capsys):
    assert cli_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("RPR009", "RPR010", "RPR011"):
        assert code in out
