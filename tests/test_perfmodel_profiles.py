"""Profiles: analytic per-iteration shapes validated against real solves.

The performance model's credibility rests on these tests: the halo and
reduction counts it charges per iteration must be exactly what the
instrumented solvers emit.
"""

import math

import numpy as np
import pytest

from repro.perfmodel.profiles import (
    HaloSpec,
    SolverConfig,
    build_profile,
    warmup_profile,
)
from repro.utils import ConfigurationError

from tests.helpers import counted_solve


class TestSolverConfig:
    def test_labels_match_figure_legends(self):
        assert SolverConfig("cg").label == "CG - 1"
        assert SolverConfig("ppcg", halo_depth=16).label == "PPCG - 16"
        assert SolverConfig("mgcg").label == "BoomerAMG*"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SolverConfig("gmres")
        with pytest.raises(ConfigurationError):
            SolverConfig("ppcg", halo_depth=0)


class TestProfileShapes:
    def test_cg_profile(self):
        p = build_profile(SolverConfig("cg"))
        assert p.allreduces == 2.0
        assert p.halos == (HaloSpec(depth=1, fields=1, count=1.0),)
        assert p.matvecs == 1

    def test_ppcg_profile_matvecs(self):
        p = build_profile(SolverConfig("ppcg", inner_steps=10, halo_depth=4))
        assert p.matvecs == 11  # 1 outer + 10 inner
        assert p.allreduces == 2.0

    def test_ppcg_halo_blocks(self):
        p = build_profile(SolverConfig("ppcg", inner_steps=12, halo_depth=4))
        inner = [h for h in p.halos if h.depth == 4]
        assert sum(h.count for h in inner) == math.ceil(12 / 4)

    def test_ppcg_extension_schedule(self):
        p = build_profile(SolverConfig("ppcg", inner_steps=6, halo_depth=3))
        exts = [s.ext for s in p.stages if s.kernels == 1
                and s.bytes_per_cell == 32.0]
        # outer matvec at ext 0, then blocks [2,1,0,2,1,0]
        assert exts == [0, 2, 1, 0, 2, 1, 0]

    def test_warmup_profile_is_cg(self):
        assert warmup_profile() == build_profile(SolverConfig("cg"))


def _instrumented_solve(**options):
    """A 4-rank 32^2 solve on the counting stack: rank-0 log + result."""
    run = counted_solve(32, 4, eps=1e-10, **options)
    return run.events, run.result


class TestProfilesMatchInstrumentedRuns:
    def test_cg_halo_and_allreduce_counts(self):
        log, result = _instrumented_solve(solver="cg")
        profile = build_profile(SolverConfig("cg"))
        iters = result.iterations
        # +1: the initial residual matvec / setup reduction
        assert log.count("halo_exchange", 1) == \
            profile.halos[0].count * iters + 1
        assert log.count_kind("allreduce") == profile.allreduces * iters + 1

    @pytest.mark.parametrize("inner,depth", [(10, 1), (10, 4), (12, 8)])
    def test_ppcg_halo_counts(self, inner, depth):
        warmup = 15
        log, result = _instrumented_solve(
            solver="ppcg", ppcg_inner_steps=inner, halo_depth=depth,
            eigen_warmup_iters=warmup)
        assert result.converged and result.iterations > 0
        profile = build_profile(
            SolverConfig("ppcg", inner_steps=inner, halo_depth=depth))
        deep = [h for h in profile.halos if h.depth == depth and depth > 1]
        if depth > 1:
            expected_deep = sum(h.count for h in deep) \
                * (result.iterations + 1)  # +1: initial apply
            assert log.count("halo_exchange", depth) == expected_deep
        # outer allreduces: 2 per outer + 2 per warm-up + setup extras
        n_allreduce = log.count_kind("allreduce")
        expected = (2 * result.iterations + 2 * result.warmup_iterations)
        assert abs(n_allreduce - expected) <= 3

    def test_ppcg_matvec_cells_include_redundancy(self):
        """Measured matvec cells exceed interior-only by the extension work."""
        depth, inner = 4, 8
        ppcg = dict(solver="ppcg", ppcg_inner_steps=inner,
                    eigen_warmup_iters=10)
        log1, res1 = _instrumented_solve(**ppcg, halo_depth=1)
        logd, resd = _instrumented_solve(**ppcg, halo_depth=depth)
        assert res1.iterations == resd.iterations  # identical algebra
        assert logd.total("matvec", "cells") > log1.total("matvec", "cells")
