"""Tests: extended harness studies (depth sweep, future solvers, report)."""

import numpy as np
import pytest

from repro.harness.depth_sweep import DEPTHS, run_depth_sweep
from repro.harness.future_solvers import run_future_solvers
from repro.perfmodel import MACHINES, PIZ_DAINT, SPRUCE, TITAN


class TestDepthSweep:
    @pytest.fixture(scope="class")
    def titan(self):
        return run_depth_sweep(TITAN)

    def test_all_depths_present(self, titan):
        assert set(titan.seconds) == set(DEPTHS)
        for series in titan.seconds.values():
            assert len(series) == len(titan.node_counts)
            assert all(s > 0 for s in series)

    def test_gpu_best_depth_grows_with_scale(self, titan):
        bests = titan.best_depths()
        assert bests[-1] >= bests[0]
        assert titan.best_depth(8192) >= 8

    def test_cpu_plateaus_early(self):
        sweep = run_depth_sweep(SPRUCE, ranks_per_node=20)
        assert max(sweep.best_depths()) <= 8

    def test_depth_irrelevant_at_one_node(self):
        sweep = run_depth_sweep(PIZ_DAINT, node_counts=[1])
        vals = [sweep.seconds[d][0] for d in DEPTHS]
        # all depths within a few percent when communication is absent
        assert max(vals) / min(vals) < 1.05

    def test_main_prints(self, capsys):
        from repro.harness.report import FIGURES
        text = FIGURES["depth-sweep"]()["depth_sweep.txt"]
        assert "Titan" in text and "best depth" in text


class TestFutureSolvers:
    @pytest.fixture(scope="class")
    def fig(self):
        return run_future_solvers()

    def test_lines(self, fig):
        assert set(fig.series) == {"CG", "CG-fused", "Deflated CG",
                                   "CPPCG - 16"}

    def test_cppcg_dominates_at_scale(self, fig):
        at_top = {label: fig.series[label][-1] for label in fig.series}
        assert min(at_top, key=at_top.get) == "CPPCG - 16"

    def test_fused_cg_crossover(self, fig):
        cg = fig.series["CG"]
        fused = fig.series["CG-fused"]
        signs = [f < c for f, c in zip(fused, cg)]
        assert not signs[0] and signs[-1]  # overhead first, win later

    def test_main_prints(self, capsys):
        from repro.harness.report import FIGURES
        text = FIGURES["future-solvers"]()["future_solvers.txt"]
        assert "best" in text


class TestSolveResultHelpers:
    def test_total_iterations(self):
        from repro.mesh import Grid2D, decompose, Field
        from repro.solvers import SolveResult
        t = decompose(Grid2D(4, 4), 1)[0]
        r = SolveResult(x=Field(t, 1), solver="x", converged=True,
                        iterations=5, residual_norm=0.0,
                        initial_residual_norm=1.0, inner_iterations=50,
                        warmup_iterations=10)
        assert r.total_iterations == 65
        assert r.relative_residual == 0.0

    def test_zero_initial_residual(self):
        from repro.mesh import Grid2D, decompose, Field
        from repro.solvers import SolveResult
        t = decompose(Grid2D(4, 4), 1)[0]
        r = SolveResult(x=Field(t, 1), solver="x", converged=True,
                        iterations=0, residual_norm=0.0,
                        initial_residual_norm=0.0)
        assert r.relative_residual == 0.0


class TestFieldSummaryStr:
    def test_str_contains_quantities(self):
        from repro.physics import FieldSummary
        s = FieldSummary(volume=1.0, mass=2.0, internal_energy=3.0,
                         mean_temperature=4.0, max_temperature=5.0,
                         min_temperature=0.5)
        text = str(s)
        assert "mass=2" in text and "ie=3" in text
