"""Tests for the §VII future-work extensions: fused CG, deflation,
CPPCG's provable interval, and field summaries."""

import numpy as np
import pytest

from repro.comm import SerialComm, launch_spmd
from repro.mesh import Field, Grid2D
from repro.solvers import (
    EigenBounds,
    SolverOptions,
    cg_fused_solve,
    cg_solve,
    deflated_cg_solve,
    ppcg_solve,
    solve_linear,
)
from repro.solvers.deflation import DeflationSpace
from repro.solvers.eigen import lam_max_bound
from repro.solvers.options import options_from_dict
from repro.utils import ConfigurationError, ConvergenceError

from tests.helpers import (
    counted_solve,
    crooked_pipe_system,
    distributed_solve,
    random_spd_faces,
    reference_solution,
    serial_operator,
)


class TestFusedCG:
    def test_matches_reference(self):
        g, kx, ky, bg = crooked_pipe_system(32)
        x_ref = reference_solution(kx, ky, bg)
        op = serial_operator(g, kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        result = cg_fused_solve(op, b, eps=1e-12)
        assert result.converged
        assert np.allclose(result.x.interior, x_ref,
                           atol=1e-8 * np.abs(x_ref).max())

    def test_same_iterates_as_classic_cg(self):
        g, kx, ky, bg = crooked_pipe_system(48)
        op1 = serial_operator(g, kx, ky)
        b1 = Field.from_global(op1.tile, 1, bg)
        classic = cg_solve(op1, b1, eps=1e-10)
        op2 = serial_operator(g, kx, ky)
        b2 = Field.from_global(op2.tile, 1, bg)
        fused = cg_fused_solve(op2, b2, eps=1e-10)
        # mathematically identical; round-off may shift by an iteration
        assert abs(fused.iterations - classic.iterations) <= 2
        hist = min(len(classic.history), len(fused.history))
        assert np.allclose(classic.history[:hist], fused.history[:hist],
                           rtol=1e-6)

    def test_one_allreduce_per_iteration(self):
        """The whole point: a single global reduction per iteration."""
        run = counted_solve(24, solver="cg_fused", eps=1e-10)
        assert run.events.count_kind("allreduce") \
            == run.result.iterations + 1

    def test_with_preconditioner(self):
        from repro.solvers import BlockJacobiPreconditioner
        g, kx, ky, bg = crooked_pipe_system(24)
        x_ref = reference_solution(kx, ky, bg)
        op = serial_operator(g, kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        result = cg_fused_solve(op, b, eps=1e-11,
                                preconditioner=BlockJacobiPreconditioner(op))
        assert result.converged
        assert np.allclose(result.x.interior, x_ref, atol=1e-7)

    @pytest.mark.parametrize("size", [2, 4])
    def test_distributed_matches_serial(self, size):
        g, kx, ky, bg = crooked_pipe_system(32)
        x_ref = reference_solution(kx, ky, bg)
        options = SolverOptions(solver="cg_fused", eps=1e-11)
        x, result = distributed_solve(g, kx, ky, bg, options, size)
        assert result.converged
        assert np.abs(x - x_ref).max() <= 1e-7 * np.abs(x_ref).max()

    def test_zero_rhs(self):
        g, kx, ky, _ = crooked_pipe_system(8)
        op = serial_operator(g, kx, ky)
        result = cg_fused_solve(op, op.new_field())
        assert result.converged and result.iterations == 0

    def test_driver_dispatch(self):
        g, kx, ky, bg = crooked_pipe_system(16)
        op = serial_operator(g, kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        result = solve_linear(op, b, options=SolverOptions(
            solver="cg_fused", eps=1e-10))
        assert result.solver == "cg_fused" and result.converged


class TestDeflation:
    def test_matches_reference(self):
        g, kx, ky, bg = crooked_pipe_system(32)
        x_ref = reference_solution(kx, ky, bg)
        op = serial_operator(g, kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        result = deflated_cg_solve(op, b, eps=1e-11, blocks=(4, 4))
        assert result.converged
        assert result.deflation_dim == 16
        assert np.allclose(result.x.interior, x_ref,
                           atol=1e-8 * np.abs(x_ref).max())

    def test_reduces_iterations_on_stiff_system(self):
        """Deflation removes the low modes that dominate at large dt."""
        g, kx, ky, bg = crooked_pipe_system(48, dt=10.0)
        op1 = serial_operator(g, kx, ky)
        b1 = Field.from_global(op1.tile, 1, bg)
        plain = cg_solve(op1, b1, eps=1e-10)
        op2 = serial_operator(g, kx, ky)
        b2 = Field.from_global(op2.tile, 1, bg)
        deflated = deflated_cg_solve(op2, b2, eps=1e-10, blocks=(8, 8))
        assert deflated.converged
        assert deflated.iterations < 0.75 * plain.iterations

    def test_more_blocks_fewer_iterations(self):
        g, kx, ky, bg = crooked_pipe_system(48, dt=10.0)

        def iters(blocks):
            op = serial_operator(g, kx, ky)
            b = Field.from_global(op.tile, 1, bg)
            return deflated_cg_solve(op, b, eps=1e-10,
                                     blocks=blocks).iterations

        assert iters((8, 8)) < iters((4, 4)) <= iters((2, 2)) + 5

    @pytest.mark.parametrize("size", [2, 4, 6])
    def test_distributed_matches_serial(self, size):
        g, kx, ky, bg = crooked_pipe_system(32, dt=5.0)
        x_ref = reference_solution(kx, ky, bg)
        options = SolverOptions(solver="dcg", eps=1e-11,
                                deflation_blocks=(4, 4))
        x, result = distributed_solve(g, kx, ky, bg, options, size)
        assert result.converged
        assert np.abs(x - x_ref).max() <= 1e-7 * np.abs(x_ref).max()

    def test_with_local_preconditioner(self):
        g, kx, ky, bg = crooked_pipe_system(32, dt=5.0)
        x_ref = reference_solution(kx, ky, bg)
        op = serial_operator(g, kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        result = deflated_cg_solve(op, b, eps=1e-11, blocks=(4, 4),
                                   preconditioner="block_jacobi")
        assert result.converged
        assert np.allclose(result.x.interior, x_ref, atol=1e-7)

    @pytest.mark.parametrize("n,size,options,iterations", [
        (32, 1, {}, 62), (48, 4, {}, 96),
        (32, 2, dict(preconditioner="diagonal", deflation_blocks=(2, 2)), 53),
        (64, 1, dict(preconditioner="block_jacobi", deflation_blocks=(8, 8)),
         55),
    ])
    def test_is_cg_on_the_projected_operator(self, n, size, options,
                                             iterations):
        """Deflated CG is ``cg_solve`` on ``P A``; these counts are the
        hand-written deflated loop's, whose solutions the replacement
        reproduced bit for bit."""
        result = counted_solve(n, size, solver="dcg", **options).result
        assert result.converged and result.iterations == iterations

    @pytest.mark.parametrize("reduction", range(16, 24))
    def test_poisoned_reduction_is_judged_by_the_watch(self, reduction):
        """A NaN in any reduction of an iteration — the projector's
        ``W^T v`` included, which the coarse solve must pass through, not
        reject with a ``ValueError`` — is rolled back by a guard, and
        without one is a ``BreakdownError``."""
        from repro.numerics.breakdown import BreakdownError
        from tests.helpers import scripted_system

        def solve(script, **options):
            return solve_linear(
                *scripted_system(script),
                options=SolverOptions(solver="dcg", **options))

        poison = {reduction: lambda out: out * np.nan}
        clean = solve({}, guard_interval=3)
        healed = solve(poison, guard_interval=3)
        assert healed.converged and healed.iterations == 27
        assert healed.history == clean.history
        assert np.array_equal(healed.x.data, clean.x.data)
        with pytest.raises(BreakdownError):
            solve(poison)

    def test_projector_annihilates_deflation_space(self, rng):
        """P A W = 0: the defining property of the deflation projector."""
        n = 16
        kx, ky = random_spd_faces(rng, n, n)
        op = serial_operator(Grid2D(n, n), kx, ky)
        space = DeflationSpace(op, (n, n), blocks=(2, 2))
        w_field = op.new_field()
        aw = op.new_field()
        for j in range(space.k):
            w_field.data.fill(0.0)
            w_field.interior[...] = (space.block_id == j)
            op.apply(w_field, aw)
            space.project(aw)
            assert np.abs(aw.interior).max() < 1e-10

    def test_blocks_exceeding_mesh_rejected(self):
        g, kx, ky, bg = crooked_pipe_system(8)
        op = serial_operator(g, kx, ky)
        with pytest.raises(ConfigurationError):
            DeflationSpace(op, (8, 8), blocks=(16, 16))

    def test_wt_counts_cells(self, rng):
        n = 12
        kx, ky = random_spd_faces(rng, n, n)
        op = serial_operator(Grid2D(n, n), kx, ky)
        space = DeflationSpace(op, (n, n), blocks=(3, 3))
        ones = op.new_field()
        ones.interior[...] = 1.0
        sums = space.wt(ones)
        assert np.allclose(sums, (n * n) / 9)


class TestAdaptivePPCG:
    """The §VIII robustness question at the top of the spectrum: a
    caller's interval that undershoots ``lam_max`` fails, the solver's own
    (Gershgorin ``lam_max``) converges with no restart machinery."""

    def bad_bounds(self):
        # grossly underestimated lam_max -> Chebyshev polynomial diverges
        return EigenBounds(1.0, 1.5)

    def test_nonadaptive_fails_with_bad_bounds(self):
        g, kx, ky, bg = crooked_pipe_system(32)
        op = serial_operator(g, kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        with pytest.raises(ConvergenceError):
            result = ppcg_solve(op, b, eps=1e-10, bounds=self.bad_bounds(),
                                max_iters=50, warmup_iters=3)
            # either breakdown raises or the solve stalls
            if not result.converged:
                raise ConvergenceError("stalled")

    def test_adaptive_recovers_from_bad_bounds(self):
        g, kx, ky, bg = crooked_pipe_system(32)
        x_ref = reference_solution(kx, ky, bg)
        op = serial_operator(g, kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        result = ppcg_solve(op, b, eps=1e-10, max_iters=50, warmup_iters=3)
        assert result.converged and not result.degraded
        assert result.eigen_bounds[1] == lam_max_bound(op)
        assert np.allclose(result.x.interior, x_ref,
                           atol=1e-6 * np.abs(x_ref).max())

    def test_adaptive_noop_on_good_bounds(self):
        g, kx, ky, bg = crooked_pipe_system(32)
        op = serial_operator(g, kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        result = ppcg_solve(op, b, eps=1e-10)
        assert result.converged and not result.degraded
        assert not hasattr(result, "restarts")
        lam_min, lam_max = result.eigen_bounds
        assert lam_min < 1.0 < lam_max == lam_max_bound(op)

    def test_driver_passes_adaptive(self):
        with pytest.raises(ConfigurationError, match="'adaptive'"):
            options_from_dict({"solver": "ppcg", "adaptive": False})
        with pytest.raises(TypeError):
            ppcg_solve(None, None, adaptive=True)
        g, kx, ky, bg = crooked_pipe_system(24)
        op = serial_operator(g, kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        result = solve_linear(op, b, options=SolverOptions(
            solver="ppcg", eps=1e-10))
        assert result.converged


class TestFieldSummary:
    def test_values_match_numpy(self):
        from repro.physics import Simulation, crooked_pipe
        from repro.physics.simulation import Simulation as Sim
        sim = Sim(SerialComm(), Grid2D(24, 24), crooked_pipe(),
                  SolverOptions(solver="cg", eps=1e-10))
        s = sim.summary()
        cell_v = sim.grid.dx * sim.grid.dy
        density = sim.fields["density"].interior
        u = sim.u.interior
        assert s.volume == pytest.approx(24 * 24 * cell_v)
        assert s.mass == pytest.approx(density.sum() * cell_v)
        assert s.internal_energy == pytest.approx(u.sum() * cell_v)
        assert s.mean_temperature == pytest.approx(u.mean())
        assert s.max_temperature == pytest.approx(u.max())
        assert s.min_temperature == pytest.approx(u.min())

    def test_energy_conserved_across_steps(self):
        from repro.physics import crooked_pipe
        from repro.physics.simulation import Simulation as Sim
        sim = Sim(SerialComm(), Grid2D(24, 24), crooked_pipe(),
                  SolverOptions(solver="ppcg", eps=1e-12))
        before = sim.summary()
        sim.run(3)
        after = sim.summary()
        assert after.internal_energy == pytest.approx(
            before.internal_energy, rel=1e-9)
        assert after.mass == pytest.approx(before.mass)
        assert after.max_temperature < before.max_temperature  # diffusion

    def test_distributed_summary_matches_serial(self):
        from repro.physics import crooked_pipe
        from repro.physics.simulation import Simulation as Sim

        def rank_main(comm):
            sim = Sim(comm, Grid2D(24, 24), crooked_pipe(),
                      SolverOptions(solver="cg", eps=1e-11))
            sim.step()
            return sim.summary()

        serial = launch_spmd(rank_main, 1)[0]
        for s in launch_spmd(rank_main, 4):
            assert s.internal_energy == pytest.approx(
                serial.internal_energy, rel=1e-10)
            assert s.max_temperature == pytest.approx(
                serial.max_temperature, rel=1e-10)


class TestDeckExtensions:
    def test_extension_solver_flags(self):
        from repro.physics import parse_deck_text
        deck = parse_deck_text(
            "*tea\nstate 1 density=1 energy=1\nuse_cg_fused\n*endtea")
        assert deck.solver == "cg_fused"
        deck = parse_deck_text(
            "*tea\nstate 1 density=1 energy=1\nuse_dpcg\n*endtea")
        assert deck.solver == "dcg"

    def test_options_labels(self):
        assert SolverOptions(solver="cg_fused").label() == "CG-F - 1"
        assert SolverOptions(solver="dcg").label() == "DCG - 1"

    def test_invalid_deflation_blocks(self):
        with pytest.raises(ConfigurationError):
            SolverOptions(solver="dcg", deflation_blocks=(0, 4))
