"""One road from a problem to a solution: every harness is a caller of the
same four stages (problem -> system, deck -> options, the rank program,
the stepping driver), so they must agree bit for bit — and stay the only
copies (the architecture guard)."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli.main import main
from repro.mesh import Grid2D, Grid3D
from repro.numerics.breakdown import BreakdownError
from repro.observe import traced_solve
from repro.physics import (crooked_duct_3d, crooked_pipe, first_step_system,
                           run_simulation)
from repro.resilience import FaultPlan, build_resilient_comm, run_resilient
from repro.resilience.guard import SolverGuard
from repro.service import (CancelToken, Cancelled, DeadlineExceeded,
                           ScheduledCancel)
from repro.solvers import EigenBounds, SolverOptions, solve_linear
from repro.solvers.driver import SolveSetup
from repro.solvers.ranks import solve_on_ranks
from repro.utils.errors import ConfigurationError, ConvergenceError

from tests.helpers import scripted_system

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

# -- the all-roads differential ------------------------------------------------

SOLVERS = {
    "cg": dict(solver="cg"),
    "ppcg-2": dict(solver="ppcg", halo_depth=2),
    "chebyshev": dict(solver="chebyshev"),
    "cg_fused": dict(solver="cg_fused"),
    "jacobi": dict(solver="jacobi", max_iters=100_000),
}
PROBLEMS = {"pipe-24": (Grid2D(24, 24), crooked_pipe()),
            "duct-12": (Grid3D(12, 12, 12), crooked_duct_3d())}


def outcome(result):
    return (result.iterations, result.inner_iterations,
            result.warmup_iterations, result.history)


@pytest.mark.distributed
@pytest.mark.parametrize("size", [1, 2, 4])
@pytest.mark.parametrize("problem", list(PROBLEMS))
@pytest.mark.parametrize("solver", list(SOLVERS))
def test_all_roads_agree(solver, problem, size):
    """The rank program called bare, traced and through the disabled-plan
    resilient stack, and the first step of the stepping driver, give equal
    solution bits, iteration counts and histories."""
    options = SolverOptions(eps=1e-8, **SOLVERS[solver])
    grid, spec = PROBLEMS[problem]
    _, *faces, bg = first_step_system(grid, spec)

    bare = solve_on_ranks(grid, faces, bg, options, size)
    traced = traced_solve(grid, *faces, bg, options, size=size)
    resilient = solve_on_ranks(
        grid, faces, bg, options, size,
        stack=lambda comm, _: build_resilient_comm(comm,
                                                   FaultPlan.disabled()))
    assert outcome(traced.result) == outcome(bare.result)
    assert outcome(resilient.result) == outcome(bare.result)
    assert np.array_equal(resilient.x, bare.x)
    if problem == "pipe-24":    # run_resilient solves the crooked pipe only
        report = run_resilient(options, FaultPlan.disabled(), n=24, size=size)
        assert outcome(report.result) == outcome(bare.result)
        assert np.array_equal(report.x, bare.x)

    sim = run_simulation(grid, spec, options, nranks=size, warm_start=False)
    step, = sim.steps
    assert np.array_equal(sim.temperature, bare.x)
    assert (step.iterations, step.inner_iterations, step.warmup_iterations,
            step.residual_norm) == (*outcome(bare.result)[:3],
                                    bare.result.residual_norm)


# -- same deck, same solve -----------------------------------------------------

DECK = """\
*tea
state 1 density=100.0 energy=0.0001
state 2 density=0.1 energy=25.0 geometry=rectangle xmin=0.0 xmax=1.0 ymin=1.0 ymax=2.0
x_cells=32
y_cells=32
use_ppcg
tl_eigen_warmup_iters=7
tl_check_true_residual
*endtea
"""
SUMMARY = re.compile(r"in (\d+) outer \+ (\d+) inner \(\+(\d+) warm-up\) "
                     r"iterations, .* \(true ")


@pytest.mark.parametrize("ranks", ["1", "2"])
def test_cli_subcommands_solve_the_same_deck_alike(tmp_path, capsys,
                                                   monkeypatch, ranks):
    """``solve``, ``trace`` and ``tealeaf`` read every deck key through the
    one deck -> options map: 7 warm-up iterations and a true residual from
    all three (``solve`` ran 25 and ``trace`` dropped the true residual)."""
    import repro.physics.simulation as simulation
    deck = tmp_path / "tea.in"
    deck.write_text(DECK)
    common = ["--deck", str(deck), "--ranks", ranks]

    counts = {}
    for command in (["solve"], ["solve", "--solver", "cppcg"],
                    ["trace", "--virtual-clock", "--out", str(tmp_path)]):
        assert main(command + common) == 0
        match = SUMMARY.search(capsys.readouterr().out)
        assert match, command
        counts[tuple(command[:3])] = match.groups()
    assert len(set(counts.values())) == 1
    assert counts[("solve",)][2] == "7"

    reports = []
    run = simulation.run_simulation
    monkeypatch.setattr(simulation, "run_simulation", lambda *a, **kw:
                        reports.append(run(*a, **kw)) or reports[-1])
    assert main(["tealeaf", "--steps", "1"] + common) == 0
    step, = reports[0].steps
    assert step.warmup_iterations == 7
    assert step.true_residual_norm is not None
    assert " true=" in capsys.readouterr().out


# -- the architecture guard ----------------------------------------------------


def callers():
    """``{callee name: {"package/module.py::function", ...}}`` over every
    call in ``src/repro``, the callee being the called name or attribute."""
    found = {}

    class Visitor(ast.NodeVisitor):
        def __init__(self, module):
            self.module, self.scope = module, []

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_ClassDef = visit_AsyncFunctionDef = visit_FunctionDef

        def visit_Call(self, node):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            where = f"{self.module}::{'.'.join(self.scope) or '<module>'}"
            found.setdefault(name, set()).add(where)
            if name == "SolverOptions" and any(
                    isinstance(n, ast.Name) and n.id == "deck"
                    for n in ast.walk(node)):
                found.setdefault("SolverOptions(deck.*)", set()).add(where)
            self.generic_visit(node)

    for path in sorted(SRC.rglob("*.py")):
        Visitor(path.relative_to(SRC).as_posix()).visit(
            ast.parse(path.read_text(encoding="utf-8")))
    return found


def test_each_stage_has_one_definition():
    """A new copy of a stage fails here: the caller sets of the road's
    construction calls are pinned."""
    calls = callers()
    rank_program = "solvers/ranks.py::rank_program"
    assert calls["from_global_faces"] == {
        rank_program, "solvers/ranks.py::serial_operator"}
    assert calls["launch_spmd"] == {
        "solvers/ranks.py::solve_on_ranks",
        "physics/simulation.py::run_simulation"}
    assert calls["face_coefficients"] == {
        "physics/state.py::first_step_system"}
    # options -> guard: one construction, reached from two places
    assert "SolverGuard" not in calls
    assert calls["from_options"] == {
        rank_program,                                    # SolverGuard's
        "solvers/defences.py::Defences.from_options",    # SolverGuard's
        "solvers/driver.py::solve_linear"}               # Defences'
    # deck -> options: one map, and the CLI holds no copy of it
    assert calls["SolverOptions(deck.*)"] == {
        "physics/deck.py::deck_solver_options"}
    assert not any(where.startswith("cli/")
                   for where in calls["SolverOptions"])
    # only the rank program and Simulation put an operator on a stack
    wrappers = {"InstrumentedComm", "RetryingComm", "FaultyComm",
                "ChecksumComm", "SanitizerComm", "build_resilient_comm",
                "instrumented_stack", "stack"}
    wraps = set().union(*(calls.get(name, set()) for name in wrappers))
    builds = calls["from_global_faces"] | calls["StencilOperator"]
    assert wraps & builds == {rank_program,
                              "physics/simulation.py::Simulation.__init__"}


def test_the_3d_fork_is_gone():
    assert not [p.name for p in SRC.rglob("*") if "3d" in p.name.lower()]
    source = "".join(p.read_text(encoding="utf-8")
                     for p in SRC.rglob("*.py"))
    for name in ("Simulation3D", "run_simulation_3d_distributed",
                 "BoxRegion3D", "paint_boxes", "face_coefficients_3d"):
        assert name not in source, name


def test_the_serial_multigrid_fork_is_gone():
    """One V-cycle for MG-CG on every world size: no global-array
    hierarchy beside it, and the driver does not pick by world size."""
    source = "".join(p.read_text(encoding="utf-8")
                     for p in SRC.rglob("*.py"))
    for name in ("MultigridHierarchy", "level_matvec", "_assemble_level",
                 "dmgcg_solve"):
        assert name not in source, name
    tree = ast.parse((SRC / "solvers" / "driver.py").read_text(
        encoding="utf-8"))
    dispatch = next(n for n in ast.walk(tree)
                    if isinstance(n, ast.FunctionDef) and n.name == "_dispatch")
    branches = [n for n in ast.walk(dispatch) if isinstance(n, ast.If)
                and "'mgcg'" in ast.unparse(n.test)]
    assert len(branches) == 1
    assert "comm.size" not in "".join(ast.unparse(n)
                                      for n in branches[0].body)


def test_the_service_lifecycle_is_stated_once():
    """Lifecycle records, quota and deck parse have one writer each, and
    neither driver grows back into one long method."""
    writers, spans = {}, {}
    for path in sorted((SRC / "service").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Dict):
                for key, value in zip(node.keys, node.values):
                    if getattr(key, "value", None) == "type" \
                            and isinstance(value, ast.Constant):
                        writers.setdefault(value.value, set()).add(path.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                spans[f"{path.name}::{node.name}"] = \
                    node.end_lineno - node.lineno
    assert writers == {
        **dict.fromkeys(("accepted", "shed", "dedup", "dispatched",
                         "terminal"), {"lifecycle.py"}),
        "attempt": {"engine.py"}}
    calls = callers()
    for name in ("TokenBucket", "deck_solver_options"):
        assert [w for w in calls[name] if w.startswith("service/")] == \
            ["service/lifecycle.py::RequestLifecycle."
             + ("arrive" if name == "TokenBucket" else "parse")]
    assert {name: span for name, span in spans.items() if span > 60
            and name.split("::")[0] in ("engine.py", "front.py",
                                        "lifecycle.py")} == {}


#: Settings that only tests (and examples) give a second value: kept,
#: but each is a candidate for a constant once its tests no longer need it.
TEST_ONLY_SETTINGS = {
    "raise_on_stall": "pinned ConvergenceError tests switch it on",
    "replace_tolerance": "pinned replacement tests set an explicit bound",
    "degrade_enabled": "the engine/front parity and pinned tests clear it",
    "cache_enabled": "pinned cache tests clear it",
    "max_queue": "the campaigns state the default 8; tests shorten it",
}


def settings_with_a_caller(defaults):
    """The ``defaults`` keys something other than a test sets: a CLI flag,
    or a keyword of a call under ``src/repro`` whose value is neither its
    field's default nor a pass-through (``name=<x>.name``) — which counts
    each ``field=deck.tl_*`` of ``deck_solver_options``."""
    from repro.cli.main import _OPTION_FLAGS

    covered = set(_OPTION_FLAGS)
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            for kw in node.keywords:
                if kw.arg not in defaults or getattr(
                        kw.value, "attr", None) == kw.arg:
                    continue
                try:
                    if ast.literal_eval(kw.value) == defaults[kw.arg]:
                        continue
                except ValueError:
                    pass
                covered.add(kw.arg)
    return covered & set(defaults)


def test_every_setting_has_a_caller():
    """A ``SolverOptions`` or ``ServiceConfig`` field nobody but a test
    sets is a constant waiting to happen: each has a deck key, a CLI flag
    or a non-test caller, or is named in ``TEST_ONLY_SETTINGS``."""
    from dataclasses import MISSING, fields

    from repro.service import ServiceConfig

    defaults = {f.name: f.default for cls in (SolverOptions, ServiceConfig)
                for f in fields(cls) if f.default is not MISSING}
    covered = settings_with_a_caller(defaults)
    assert sorted(set(defaults) - covered - set(TEST_ONLY_SETTINGS)) == []
    # the allow-list names only fields, and none that found a caller
    assert set(TEST_ONLY_SETTINGS) <= set(defaults) - covered


# -- one watch over every recurrence -------------------------------------------

WATCHED = ("jacobi", "cg", "cg_fused", "chebyshev", "ppcg", "dcg", "mgcg")
ABFT_REFUSED = ("jacobi", "cg_fused", "chebyshev")   # not a CG recurrence


def watched_solve(solver, script=None, guard=None, cancel=None, setup=None,
                  **options):
    """The serial 16^2 crooked pipe through ``solve_linear``, its k-th
    reduction passed through ``script[k]``: ``(result, op)``."""
    op, b = scripted_system(script)
    options = SolverOptions(solver=solver, max_iters=100_000, **options)
    return solve_linear(op, b, options=options, guard=guard,
                        cancel=cancel, setup=setup), op


@pytest.mark.parametrize("solver", WATCHED)
@pytest.mark.parametrize("defence", ["budget", "client_cancel", "guard",
                                     "stagnation_window", "abft_interval"])
def test_defence_is_honoured_or_refused(defence, solver):
    """Whatever ``SolverOptions`` and ``solve_linear`` accept for a solver
    demonstrably fires in its loop; what cannot is a ``ConfigurationError``
    naming the option.  Nothing is silently dropped."""
    if defence == "budget":
        with pytest.raises(DeadlineExceeded) as exc:
            watched_solve(solver, cancel=CancelToken(iteration_budget=3))
        assert exc.value.iteration == 3
    elif defence == "client_cancel":
        with pytest.raises(Cancelled) as exc:
            watched_solve(solver, cancel=ScheduledCancel(
                CancelToken(), cancel_at_iteration=3))
        assert exc.value.iteration == 3
    elif defence == "guard":
        # One poisoned reduction: rolled back, then bit-identical to the
        # clean run.
        guard = SolverGuard(checkpoint_interval=3)
        clean, _ = watched_solve(solver, guard_interval=3)
        healed, _ = watched_solve(solver, {12: lambda out: out * np.nan},
                                  guard=guard, guard_interval=3)
        assert guard.rollbacks == 1
        assert healed.converged and outcome(healed) == outcome(clean)
        assert np.array_equal(healed.x.data, clean.x.data)
    elif defence == "stagnation_window":
        # One reduction a million times too large — finite, so only the
        # window can object.
        knobs = dict(script={11: lambda out: out * 1e6},
                     eigen_warmup_iters=4)
        if solver in ("chebyshev", "ppcg"):
            # The Ritz interval of 4 warm-up iterations, lam_max far
            # short of the spectrum: the recurrence must go wrong for the
            # window to have something to see.
            knobs["setup"] = SolveSetup(bounds=EigenBounds(
                1.0333087740197031, 4.999091975880415))
        with pytest.raises(BreakdownError, match="stagnated"):
            watched_solve(solver, stagnation_window=1, **knobs)
        try:
            watched_solve(solver, **knobs)
        except ConvergenceError as exc:
            assert "stagnated" not in str(exc)
    elif solver in ABFT_REFUSED:
        with pytest.raises(ConfigurationError, match="abft_interval"):
            SolverOptions(solver=solver, abft_interval=2)
    else:
        clean, _ = watched_solve(solver)
        checked, op = watched_solve(solver, abft_interval=2)
        assert op.events.recovery_count("matvec") == (
            checked.warmup_iterations // 2 + checked.iterations // 2)
        assert outcome(checked) == outcome(clean)


def test_every_recurrence_is_watched_by_the_one_defences():
    """The solver family states each defence once, in ``defences.py``: no
    solver checks a token, builds a breakdown guard or raises a breakdown
    by hand, no ``*_solve`` takes a defence as a loose parameter, and every
    one that iterates takes ``defences``."""
    exempt = {"multigrid_solve"}   # standalone V-cycles, not a SolverOptions solver
    for path in sorted([*(SRC / "solvers").glob("*.py"),
                        *(SRC / "multigrid").glob("*.py")]):
        where = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))

        def called(node):
            return [ast.unparse(n.func) for n in ast.walk(node)
                    if isinstance(n, ast.Call)]

        if where != "solvers/defences.py":
            assert not [c for c in called(tree)
                        if c.endswith("BreakdownGuard")
                        or ("cancel" in c and c.endswith(".check"))], where
        if where == "solvers/deflation.py":
            assert not any(isinstance(n, ast.While) for n in ast.walk(tree))
        for fn in tree.body:
            if not (isinstance(fn, ast.FunctionDef)
                    and fn.name.endswith("_solve")):
                continue
            here = f"{where}::{fn.name}"
            params = {a.arg for a in fn.args.args + fn.args.kwonlyargs}
            assert not params & {"cancel", "stagnation_window"}, here
            iterates = any(c.split(".")[-1] == "cg_solve"
                           for c in called(fn)) or any(
                isinstance(n, ast.While) for n in ast.walk(fn))
            assert "defences" in params or not iterates \
                or fn.name in exempt, here
            raised = {ast.unparse(n.exc.func) for n in ast.walk(fn)
                      if isinstance(n, ast.Raise)
                      and isinstance(n.exc, ast.Call)}
            assert not raised & {"BreakdownError", "ConvergenceError"}, here


# -- no SciPy on the solve or service path -------------------------------------

NO_SCIPY_PROBE = """
import sys
import repro, repro.solvers, repro.service, repro.cli.main
from repro.physics import crooked_pipe_system
from repro.service import WorkerGroup
from repro.solvers import SolverOptions
from repro.solvers.ranks import solve_on_ranks

grid, kx, ky, bg = crooked_pipe_system(32)
for kw in (dict(solver="cg"), dict(solver="ppcg", halo_depth=4),
           dict(solver="chebyshev"),
           dict(solver="cg", dtype="float32", refine=True)):
    options = SolverOptions(eps=1e-8, **kw)
    assert solve_on_ranks(grid, (kx, ky), bg, options,
                          1).result.converged, kw
    assert WorkerGroup(0).execute(options, 32).kind == "ok", kw
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_no_scipy_on_the_solve_or_service_path():
    """A fresh process imports the package, its solvers, its service and
    its CLI and solves with CG, CPPCG, Chebyshev and float32 + refine,
    inline and on a service worker's path, without loading SciPy: it
    serves only the referee (``assemble_sparse``), ``mgcg``'s coarse LU
    and the tests."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", NO_SCIPY_PROBE], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
