"""Integration tests: the experiment harness (reduced parameters)."""

import math

import numpy as np
import pytest

from repro.harness import (
    FigureSeries,
    gpu_node_counts,
    run_fig3,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
    run_fig8,
    run_table1,
    spruce_node_counts,
)
from repro.utils import ConfigurationError


class TestCommon:
    def test_gpu_node_counts(self):
        assert gpu_node_counts(8) == [1, 2, 4, 8]
        assert gpu_node_counts(8192)[-1] == 8192

    def test_spruce_node_counts(self):
        assert spruce_node_counts() == [2 ** i for i in range(11)]

    def test_figure_series_api(self):
        fig = FigureSeries(name="t", node_counts=[1, 2, 4])
        fig.add("a", [3.0, 2.0, 1.5])
        assert fig.value("a", 2) == 2.0
        assert fig.best("a") == (4, 1.5)
        assert "t" in fig.to_text()
        csv = fig.to_csv()
        assert csv.splitlines()[0] == "nodes,a"
        with pytest.raises(ConfigurationError):
            fig.add("bad", [1.0])


class TestTable1:
    def test_rows_match_paper(self):
        rows = run_table1()
        by_name = {r["system"]: r for r in rows}
        assert set(by_name) == {"Spruce", "Piz Daint", "Titan"}
        assert by_name["Titan"]["compute_device"] == "NVIDIA K20x"
        assert by_name["Piz Daint"]["compute_device"] == "NVIDIA K20x"
        assert "E5-2680v2" in by_name["Spruce"]["compute_device"]
        assert by_name["Titan"]["interconnect"] == "torus3d"      # Gemini
        assert by_name["Piz Daint"]["interconnect"] == "dragonfly"  # Aries


class TestFig3:
    @pytest.fixture(scope="class")
    def result(self):
        # reduced mesh and end time to keep the test quick
        return run_fig3(mesh_n=32, end_time=3.0, eps=1e-7)

    def test_pipe_hotter_than_dense_material(self, result):
        T = result.temperature
        pipe = result.pipe_mask()
        assert T[pipe].mean() > 5 * T[~pipe].mean()

    def test_heat_progresses_along_pipe(self, result):
        """Temperature decreases monotonically-ish along the pipe path."""
        T = result.temperature
        n = result.mesh_n
        row = int(1.5 / 10 * n)  # y ~ 1.5: the first pipe segment
        seg = T[row, : int(0.5 * n)]
        assert seg[0] > seg[-1]

    def test_render(self, result):
        art = result.render(width=40)
        assert len(art.splitlines()) > 5

    def test_conservation(self, result):
        # mean temperature equals the initial mean (insulated box)
        from repro.mesh import Grid2D
        from repro.physics import crooked_pipe, global_initial_state
        _, _, u0 = global_initial_state(Grid2D(32, 32), crooked_pipe())
        assert result.temperature.mean() == pytest.approx(u0.mean(), rel=1e-6)


class TestFig4:
    def test_mean_temperature_converges_with_mesh(self):
        result = run_fig4(mesh_sizes=(16, 24, 32, 48), dt=1.5, eps=1e-7)
        deltas = result.deltas()
        # refinement deltas shrink (allowing rasterisation noise)
        assert deltas[-1] < deltas[0]
        assert all(t > 0 for t in result.mean_temperatures)


@pytest.fixture(scope="module")
def fig5():
    return run_fig5(mesh_n=4000)


@pytest.fixture(scope="module")
def fig6():
    return run_fig6(mesh_n=4000)


@pytest.fixture(scope="module")
def fig7():
    return run_fig7(mesh_n=4000)


class TestFig5:
    def test_series_present(self, fig5):
        assert set(fig5.series) == {"CG - 1", "PPCG - 1", "PPCG - 4",
                                    "PPCG - 8", "PPCG - 16"}
        assert fig5.node_counts[-1] == 8192

    def test_ppcg16_wins_at_scale(self, fig5):
        at_8192 = {label: fig5.value(label, 8192) for label in fig5.series}
        assert min(at_8192, key=at_8192.get) == "PPCG - 16"

    def test_cg_plateau(self, fig5):
        best_nodes, _ = fig5.best("CG - 1")
        assert best_nodes <= 2048

    def test_anchor(self, fig5):
        assert fig5.value("PPCG - 16", 8192) == pytest.approx(4.26, rel=0.2)


class TestFig6:
    def test_faster_than_titan_at_2048(self, fig5, fig6):
        t = fig5.value("PPCG - 16", 2048)
        p = fig6.value("PPCG - 16", 2048)
        assert 1.2 < t / p < 2.0  # paper: 47%

    def test_anchor(self, fig6):
        assert fig6.value("PPCG - 16", 2048) == pytest.approx(2.79, rel=0.2)


class TestFig7:
    def test_six_lines(self, fig7):
        assert len(fig7.series) == 6

    def test_baseline_wins_small_loses_big(self, fig7):
        assert fig7.value("BoomerAMG (MPI)", 1) < fig7.value("CG - 1 (MPI)", 1)
        assert fig7.value("PPCG - 1 (MPI)", 512) < \
            fig7.value("BoomerAMG (MPI)", 512)

    def test_amg_peak_position(self, fig7):
        nodes, _ = fig7.best("BoomerAMG (Hybrid)")
        assert nodes <= 64  # paper: peaks at 32


class TestFig8:
    def test_spruce_superlinear(self):
        fig = run_fig8(mesh_n=4000)
        spruce = [v for v in fig.series["Spruce - PPCG - 1 (MPI)"]
                  if not math.isnan(v)]
        assert max(spruce) > 1.3
        titan = fig.series["Titan - PPCG - 16 (CUDA)"]
        piz = [v for v in fig.series["Piz Daint - PPCG - 16 (CUDA)"]
               if not math.isnan(v)]
        # Piz Daint efficiency beats Titan at equal node counts
        assert all(p >= t - 1e-9 for p, t in zip(piz, titan))


class TestReport:
    def test_write_report(self, tmp_path):
        from repro.harness.report import write_report
        paths = write_report(tmp_path, fig3_mesh=24)
        names = {p.name for p in paths}
        assert {"table1.txt", "fig3.txt", "fig4.csv", "fig5.csv",
                "fig6.csv", "fig7.csv", "fig8.csv"} <= names
        assert all(p.stat().st_size > 0 for p in paths)


#: harness module -> the ``repro`` subcommand that runs its campaign
CAMPAIGNS = {"chaos_sweep": "chaos", "resilience_sweep": "resilience",
             "stability_sweep": "stability", "soak": "soak",
             "service_sweep": "serve", "service_soak": "service-soak"}


@pytest.mark.parametrize("module", list(CAMPAIGNS))
def test_campaign_module_runs_without_runpy_warning(module):
    """``python -m repro.cli.main <campaign> --help`` must not find
    ``repro.cli.main`` already imported by its package (runpy's
    RuntimeWarning)."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m",
         "repro.cli.main", CAMPAIGNS[module], "--help"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
