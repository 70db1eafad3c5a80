"""Integration tests: the command-line interface."""

import argparse
import inspect

import numpy as np
import pytest

from repro.cli.main import build_parser, main
from repro.harness.resilience_sweep import run_resilience_sweep
from repro.harness.service_soak import run_service_soak
from repro.harness.service_sweep import run_service_sweep
from repro.harness.stability_sweep import run_stability_sweep
from repro.physics.deck import CROOKED_PIPE_DECK
from repro.resilience.chaos import run_campaign, run_soak


@pytest.fixture
def deck_file(tmp_path):
    p = tmp_path / "tea.in"
    p.write_text(CROOKED_PIPE_DECK.format(n=24))
    return p


class TestParser:
    def test_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["figure", "fig5"])
        assert args.name == "fig5"
        args = parser.parse_args(["tealeaf", "--deck", "x.in", "--ranks", "2"])
        assert args.ranks == 2

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


#: campaign subcommand -> the run_* function its flags feed
CAMPAIGNS = {"chaos": run_campaign, "soak": run_soak,
             "serve": run_service_sweep, "service-soak": run_service_soak,
             "resilience": run_resilience_sweep,
             "stability": run_stability_sweep}

#: campaign flags that feed no run_* parameter: where the ledger goes,
#: the serve demo, and the options rewrite of ``resilience --integrity``
NOT_RUN_PARAMETERS = {"help", "out", "index", "demo", "integrity"}


@pytest.mark.parametrize("command", list(CAMPAIGNS))
def test_campaign_defaults_are_the_run_defaults(command):
    """A campaign run with no flags runs its ``run_*`` function's default
    campaign: every flag is named for the parameter it feeds and
    defaults to that parameter's default."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)).choices[command]
    params = inspect.signature(CAMPAIGNS[command]).parameters
    for action in sub._actions:
        if action.dest in NOT_RUN_PARAMETERS:
            continue
        assert action.dest in params, (command, action.option_strings)
        assert action.default == params[action.dest].default, \
            (command, action.option_strings)


class TestTealeafCommand:
    def test_runs_deck(self, deck_file, capsys):
        rc = main(["tealeaf", "--deck", str(deck_file), "--steps", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "24x24 mesh" in out
        assert "step    2" in out

    def test_show_and_out(self, deck_file, tmp_path, capsys):
        out_npy = tmp_path / "T.npy"
        rc = main(["tealeaf", "--deck", str(deck_file), "--steps", "1",
                   "--show", "--width", "24", "--out", str(out_npy)])
        assert rc == 0
        field = np.load(out_npy)
        assert field.shape == (24, 24)

    def test_multirank(self, deck_file, capsys):
        rc = main(["tealeaf", "--deck", str(deck_file), "--steps", "1",
                   "--ranks", "2"])
        assert rc == 0
        assert "2 rank(s)" in capsys.readouterr().out


class TestFigureCommand:
    def test_table1(self, capsys):
        assert main(["figure", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Titan" in out and "Spruce" in out

    def test_fig5(self, capsys):
        assert main(["figure", "fig5"]) == 0
        out = capsys.readouterr().out
        assert "PPCG - 16" in out
        assert "8192" in out


class TestSolveCommand:
    def test_solve_deck(self, deck_file, capsys):
        rc = main(["solve", "--deck", str(deck_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "converged" in out
        assert "reductions=" in out

    def test_solver_override(self, deck_file, capsys):
        rc = main(["solve", "--deck", str(deck_file), "--solver", "cg",
                   "--ranks", "2"])
        assert rc == 0
        assert "cg: converged" in capsys.readouterr().out

    def test_halo_depth_override(self, deck_file, capsys):
        rc = main(["solve", "--deck", str(deck_file), "--solver", "ppcg",
                   "--halo-depth", "4"])
        assert rc == 0

    def test_vtk_output(self, deck_file, tmp_path, capsys):
        out_vtk = tmp_path / "state.vtk"
        rc = main(["tealeaf", "--deck", str(deck_file), "--steps", "1",
                   "--vtk", str(out_vtk)])
        assert rc == 0
        from repro.io.vtk import read_vtk
        shape, fields = read_vtk(out_vtk)
        assert shape == (24, 24)
        assert "density" in fields


class TestResilienceFlags:
    """``solve``, ``trace`` and ``tealeaf`` run on the bare or counting
    stack: a deck asking for checksums or rank-loss recovery is refused
    with exit 2 and the flag's name, never silently run without it."""

    def test_solve_trace_tealeaf_refuse_the_flags(self, tmp_path, capsys):
        for flag in ("tl_enable_checksums", "tl_enable_recovery"):
            deck = tmp_path / f"{flag}.in"
            deck.write_text(CROOKED_PIPE_DECK.format(n=12).replace(
                "*endtea", f"{flag}\ntl_checkpoint_interval=2\n"
                           f"tl_checkpoint_dir={tmp_path / 'ck'}\n*endtea"))
            for argv in (["solve"], ["trace", "--out", str(tmp_path / "tr")],
                         ["tealeaf", "--steps", "1"]):
                assert main(argv + ["--deck", str(deck)]) == 2, (flag, argv)
                err = capsys.readouterr().err
                assert flag in err and argv[0] in err
        assert not (tmp_path / "tr").exists()
        assert not (tmp_path / "ck").exists()


class TestOutputKeys:
    """The deck's TeaLeaf output keys: ``summary_frequency`` reaches the
    run and each summary is printed under its step; ``visit_frequency``,
    which ``tealeaf`` has nowhere to write, is refused by name."""

    def test_summary_frequency_prints_each_summary(self, tmp_path, capsys):
        deck = tmp_path / "tea.in"
        deck.write_text(CROOKED_PIPE_DECK.format(n=12).replace(
            "*endtea", "summary_frequency=2\n*endtea"))
        assert main(["tealeaf", "--deck", str(deck), "--steps", "5",
                     "--ranks", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        steps = [line.split()[1] for line in lines
                 if line.lstrip().startswith("step")]
        after = [lines[i - 1].split()[1] for i, line in enumerate(lines)
                 if line.lstrip().startswith("summary")]
        assert steps == ["1", "2", "3", "4", "5"]
        assert after == ["2", "4"]
        assert all("ie=" in line for line in lines if "summary" in line)

    def test_visit_frequency_is_refused(self, tmp_path, capsys,
                                        monkeypatch):
        monkeypatch.chdir(tmp_path)
        deck = tmp_path / "tea.in"
        deck.write_text(CROOKED_PIPE_DECK.format(n=12).replace(
            "*endtea", "visit_frequency=1\n*endtea"))
        assert main(["tealeaf", "--deck", str(deck), "--steps", "1"]) == 2
        assert "visit_frequency" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.vtk"))


class TestReportCommand:
    def test_writes_files(self, tmp_path, capsys):
        assert main(["report", "--out", str(tmp_path / "res")]) == 0
        out = capsys.readouterr().out
        assert "fig7.csv" in out
        assert (tmp_path / "res" / "fig5.csv").exists()
