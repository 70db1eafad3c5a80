"""Tests: the time-breakdown study (the quantitative knee story)."""

import pytest

from repro.harness.breakdown import CATEGORIES, run_breakdown
from repro.perfmodel import SPRUCE, TITAN, SolverConfig


class TestBreakdown:
    @pytest.fixture(scope="class")
    def cg(self):
        return run_breakdown(TITAN, SolverConfig("cg"))

    def test_categories_complete(self, cg):
        assert set(cg.seconds) == set(CATEGORIES)
        totals = cg.totals()
        assert all(t > 0 for t in totals)

    def test_shares_sum_to_one(self, cg):
        for n in cg.node_counts:
            assert sum(cg.share(c, n) for c in CATEGORIES) == \
                pytest.approx(1.0)

    def test_compute_dominates_small_scale(self, cg):
        assert cg.dominant(1) == "compute"
        assert cg.share("compute", 1) > 0.95

    def test_latency_dominates_at_scale(self, cg):
        """The knee mechanism: allreduce overtakes compute for CG."""
        assert cg.dominant(8192) == "allreduce"
        assert cg.share("allreduce", 8192) > cg.share("allreduce", 1)

    def test_cppcg_shifts_dominance_off_network(self):
        pp = run_breakdown(TITAN, SolverConfig("ppcg", inner_steps=10,
                                               halo_depth=16))
        cg = run_breakdown(TITAN, SolverConfig("cg"))
        assert pp.share("allreduce", 8192) < cg.share("allreduce", 8192)

    def test_mgcg_coarse_term_appears(self):
        amg = run_breakdown(SPRUCE, SolverConfig("mgcg"),
                            node_counts=[1, 64, 1024], ranks_per_node=20)
        assert amg.seconds["coarse"][0] > 0
        assert amg.seconds["setup"][0] > 0
        # coarse/gather share grows with scale
        assert amg.share("coarse", 1024) > amg.share("coarse", 1)

    def test_to_text_and_main(self, cg, capsys):
        text = cg.to_text()
        assert "compute_%" in text
        from repro.harness.report import FIGURES
        out = FIGURES["breakdown"]()["breakdown.txt"]
        assert "knee" in out
