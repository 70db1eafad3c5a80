"""Integration tests: the ill-conditioned stability battery and sweep."""

import pytest

from repro.harness.stability_sweep import render, run_stability_sweep
from repro.observe import MetricsRegistry, record_stability_metrics
from repro.physics import STABILITY_JUMPS, crooked_pipe_jump, stability_battery

SMALL_CELLS = (("cg[depth=1]", "cg", 1), ("cppcg[depth=16]", "ppcg", 16))


@pytest.fixture(scope="module")
def sweep():
    return run_stability_sweep(n=16, jumps=(1e8,), cells=SMALL_CELLS)


class TestBattery:
    def test_jump_spans_orders(self):
        spec = crooked_pipe_jump(1e8)
        assert spec.name == "crooked_pipe[jump=1e+08]"
        densities = [r.density for r in spec.regions]
        assert max(densities) / min(densities) == pytest.approx(1e8)

    def test_jump_1e3_is_the_paper_benchmark(self):
        spec = crooked_pipe_jump(1e3)
        densities = sorted({r.density for r in spec.regions})
        assert densities == pytest.approx([0.1, 100.0])

    def test_battery_covers_the_ladder(self):
        specs = stability_battery()
        assert len(specs) == len(STABILITY_JUMPS)
        assert all(s.name.startswith("crooked_pipe[jump=") for s in specs)

    def test_jump_must_be_positive(self):
        from repro.utils.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            crooked_pipe_jump(0.0)


class TestStabilitySweep:
    def test_all_protected_cells_pass(self, sweep):
        assert sweep.all_protected_pass
        assert sweep.exit_code == 0

    def test_unprotected_float32_falsely_converges(self, sweep):
        # The headline failure mode: the float32 recurrence claims
        # convergence while the true residual misses tolerance by orders.
        assert sweep.false_convergences >= 2
        for solver, _, depth in SMALL_CELLS:
            cell = sweep.cell(solver, "float32", 1e8, protected=False)
            assert cell.false_convergence(sweep.eps)
            assert cell.drift_orders >= 1.0

    def test_float64_drift_is_negligible(self, sweep):
        for solver, _, depth in SMALL_CELLS:
            for protected in (False, True):
                cell = sweep.cell(solver, "float64", 1e8, protected)
                assert cell.converged
                assert abs(cell.drift_orders) < 0.1

    def test_protected_float32_recovers_truth(self, sweep):
        for solver, _, depth in SMALL_CELLS:
            cell = sweep.cell(solver, "float32", 1e8, protected=True)
            assert cell.converged
            assert cell.true_residual <= 10 * sweep.eps
            assert cell.refinement_steps >= 1
            assert "healthy" in cell.diagnosis or cell.escalated

    def test_as_dict_schema(self, sweep):
        d = sweep.as_dict()
        assert d["schema"] == "repro.stability_sweep/v1"
        assert d["n"] == 16
        assert len(d["cells"]) == 8
        cell = d["cells"][0]
        for key in ("solver", "dtype", "jump", "protected", "converged",
                    "true_residual", "drift_orders", "replacement_splices",
                    "refinement_steps", "escalated", "diagnosis"):
            assert key in cell

    def test_render_reports_lies(self, sweep):
        text = render(sweep)
        assert "stability sweep" in text
        assert "[LIE ]" in text
        assert "false convergences (unprotected): 2" in text

    def test_sweep_is_deterministic(self, sweep):
        again = run_stability_sweep(n=16, jumps=(1e8,), cells=SMALL_CELLS)
        assert again.as_dict() == sweep.as_dict()
        assert render(again) == render(sweep)

    def test_metrics_oracle_matches_cells(self, sweep):
        # Cross-check the sweep's own counters against an independent
        # MetricsRegistry filled by the observe exporter.
        registry = MetricsRegistry()
        cells = list(sweep.cells.values())
        for cell in cells:
            record_stability_metrics(registry, cell)
        snap = registry.snapshot()
        assert snap["counters"]["stability.iterations"] == sum(
            c.iterations for c in cells)
        assert snap["counters"]["stability.refinement_steps"] == sum(
            c.refinement_steps for c in cells)
        assert snap["counters"]["stability.replacement_checks"] == sum(
            c.replacement_checks for c in cells)
        assert snap["counters"]["stability.breakdowns"] == sum(
            1 for c in cells if c.breakdown)

    def test_main_exit_code(self):
        from repro.cli.main import main
        rc = main(["stability", "--n", "12", "--jumps", "1e4",
                   "--eps", "1e-6"])
        assert rc == 0


@pytest.mark.slow
class TestFullSweepAcceptance:
    """The PR's acceptance sweep at full size (n=24, jumps 1e4/1e8)."""

    @pytest.fixture(scope="class")
    def full(self):
        return run_stability_sweep()

    def test_protected_cells_all_pass(self, full):
        assert full.all_protected_pass

    def test_unprotected_drift_reaches_two_orders(self, full):
        worst = max(c.drift_orders for c in full.cells.values()
                    if not c.protected and c.dtype == "float32")
        assert worst >= 2.0

    def test_depth16_matches_depth1_under_protection(self, full):
        # Protected CPPCG at matrix-powers depth 16 meets the same
        # true-residual tolerance as depth-1 CG on every battery rung.
        for jump in full.jumps:
            for dtype in full.dtypes:
                deep = full.cell("cppcg[depth=16]", dtype, jump, True)
                shallow = full.cell("cg[depth=1]", dtype, jump, True)
                assert deep.passes(full.eps)
                assert shallow.passes(full.eps)
