"""Self-test of the benchmark (``python3 -m pytest perfbench -q``, < 60 s).

Not collected by tier-1, whose ``testpaths`` is ``tests``.  Everything
runs in ``--quick`` mode: 64² meshes, a few ops, 40 service requests.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench.spec import (QUICK_SIZING, ROOT, benchmark_spec, metric_units,
                            use_program_source)

use_program_source()

from perfbench import harness  # noqa: E402
from perfbench.compare import verdict  # noqa: E402
from perfbench.proxies import Recorder  # noqa: E402
from perfbench.service import (QUICK_MESHES, REPEAT_DISTANCE,  # noqa: E402
                               build_schedule, schedule_bytes)
from perfbench.solve import Measured, SolveWorkload  # noqa: E402

WORKLOADS = [w["name"] for w in benchmark_spec()["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# -- the contract file ------------------------------------------------------------

def test_benchmark_json_is_within_the_contract():
    spec = benchmark_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = (WORKLOADS + list(metric_units("end_to_end"))
             + list(metric_units("per_layer")))
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


# -- the request schedule ---------------------------------------------------------

def test_schedule_is_a_function_of_the_seed():
    a = build_schedule(7, 20, QUICK_MESHES)
    assert schedule_bytes(a) == schedule_bytes(build_schedule(7, 20, QUICK_MESHES))
    b = build_schedule(8, 20, QUICK_MESHES)
    assert schedule_bytes(a) != schedule_bytes(b)
    # Another seed is another order of the same requests, client by client.
    for client_a, client_b in zip(a, b):
        assert (sorted((r.kind, r.cls if r.kind == "solve" else "") for r in client_a)
                == sorted((r.kind, r.cls if r.kind == "solve" else "") for r in client_b))


def test_every_repeat_names_an_old_key_of_its_own_client():
    for client in build_schedule(11, 40, QUICK_MESHES):
        kinds = [r.kind for r in client]
        assert kinds.count("repeat") == 4 and kinds.count("poison") == 2
        for i, req in enumerate(client):
            if req.kind == "repeat":
                sources = [j for j, r in enumerate(client[:i])
                           if r.kind == "solve" and r.key == req.key]
                assert sources and i - sources[0] >= REPEAT_DISTANCE


# -- quick runs: every name, and counts that repeat -------------------------------

@pytest.fixture(scope="module")
def quick_runs():
    """Two untraced and one traced quick subprocess of every workload."""
    runs = {}
    for name in WORKLOADS:
        ops = QUICK_SIZING[name].timed_ops(1)
        runs[name] = ([harness.start_child(name, 5, ops // harness.PROCESSES,
                                           quick=True) for _ in range(2)],
                      harness.start_child(name, 5, ops, trace=1, quick=True))
    return runs


def test_non_timing_fields_repeat_exactly(quick_runs):
    for name, ((first, second), traced) in quick_runs.items():
        for field in ("ok_ops", "failures", "counts"):
            assert first[field] == second[field], (name, field)
        assert len(first["op_seconds"]) == len(second["op_seconds"]) > 0
        assert first["failures"] == traced["failures"] == [], name
        assert first["ok_ops"] == len(first["op_seconds"])
        assert harness.end_to_end([first, second]).keys() \
            == metric_units("end_to_end").keys()


def test_every_per_layer_metric_is_emitted_and_measured_somewhere(quick_runs):
    measured = set()
    for name, (_, traced) in quick_runs.items():
        assert set(traced["layers"]) == set(metric_units("per_layer")), name
        measured |= set(traced["measured"])
    assert measured == set(metric_units("per_layer"))


def test_workloads_separate_the_layers(quick_runs):
    layers = {name: runs[1]["layers"] for name, runs in quick_runs.items()}
    assert layers["cg_serial_512"]["comm.p2p_msgs_per_op"] == 0
    assert layers["cg_ranks2_256"]["comm.p2p_msgs_per_op"] > 0
    assert (layers["cppcg_ranks2_256"]["comm.allreduces_per_op"]
            < layers["cg_ranks2_256"]["comm.allreduces_per_op"])
    assert (layers["cppcg_ranks2_256"]["halo.bytes_per_op"]
            > layers["cg_ranks2_256"]["halo.bytes_per_op"])
    front = layers["service_mixed"]
    assert front["front.completed"] + front["front.deduplicated"] \
        + front["front.rejected"] == 40
    assert front["front.shed"] == front["front.unexpected"] == 0
    assert front["journal.records_per_request"] > 1


def test_driver_command_ends_with_the_result_line():
    done = subprocess.run(
        [sys.executable, "-m", "perfbench", "--workload", "cg_ranks2_256",
         "--seed", "9", "--seconds", "1", "--trace", "0", "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] == 3
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert set(line["metrics"]) == set(metric_units("end_to_end"))
    for name, unit in metric_units("end_to_end").items():
        assert line["metrics"][name]["unit"] == unit


def test_without_the_program_the_command_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "-m", "perfbench", "--workload", "cg_serial_512",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


# -- the proxies and the correctness gate -----------------------------------------

@pytest.mark.parametrize("name", ["cg_serial_512", "cppcg_ranks2_256"])
def test_proxies_are_transparent(name):
    workload = SolveWorkload(name, quick=True)
    workload.setup()
    plain = workload.solve()
    recorders = [Recorder(rank) for rank in range(workload.ranks)]
    traced = workload.solve(recorders)
    assert np.array_equal(plain.x, traced.x)
    for field in ("iterations", "inner_iterations", "warmup_iterations",
                  "residual_norm"):
        assert getattr(plain.result, field) == getattr(traced.result, field)
    assert all(rec.spans for rec in recorders)


def test_a_corrupted_solution_is_counted_as_failed():
    workload = SolveWorkload("cg_serial_512", quick=True)
    workload.setup()
    m, ops = workload.measure(3)
    assert (m.ok_ops, m.failures) == (3, [])
    ops[1].x[3, 3] += 1e-3
    judged = Measured()
    workload.judge(ops, judged)
    assert judged.ok_ops == 2 and len(judged.failures) == 1


# -- --compare ----------------------------------------------------------------------

def test_compare_verdicts():
    base = [1.00, 1.01, 0.99, 1.00]
    assert verdict(base, [1.005, 1.0, 1.01, 0.995], "lower", 0.1, False) == "within"
    assert verdict(base, [1.3, 1.31, 1.29, 1.3], "lower", 0.1, False) == "worse"
    assert verdict(base, [0.8, 0.81, 0.79, 0.8], "higher", 0.1, False) == "worse"
    # A gain is claimed on ten runs a side, never on four (or on one).
    assert verdict(base, [0.8, 0.81, 0.79, 0.8], "lower", 0.1, False) == "within"
    assert verdict(base * 3, [0.8, 0.81, 0.79, 0.8] * 3, "lower", 0.1, False) == "better"
    assert verdict([1.0], [0.99], "lower", 0.1, False) == "within"
    # Spread wider than the bound, runs overlapping: no verdict either way.
    wide = [1.0, 1.4, 0.7, 1.2]
    assert verdict(wide, [1.1, 0.8, 1.5, 1.0], "lower", 0.1, False) == "unresolved"
    # A run taken on a loaded machine is never judged.
    assert verdict(base, [1.3, 1.31, 1.29, 1.3], "lower", 0.1, True) == "unresolved"
