"""Unit tests: Lanczos eigenvalue estimation and the paper's Eqs. 4-7."""

import hashlib

import numpy as np
import pytest

from repro.mesh import Field
from repro.solvers import (
    EigenBounds,
    SolverOptions,
    StencilOperator2D,
    cg_solve,
    chebyshev_epsilon,
    estimate_eigenvalues,
    iteration_bounds,
    lanczos_tridiagonal,
    make_local_preconditioner,
)
from repro.solvers.eigen import (
    LAM_MIN_SAFETY,
    condition_estimate,
    lam_max_bound,
    spectrum_bounds,
    tridiagonal_extreme,
)
from repro.solvers.ranks import solve_on_ranks
from repro.utils import ConfigurationError

from tests.helpers import crooked_pipe_system, random_spd_faces, serial_operator
from repro.mesh import Grid2D, Grid3D


class TestEigenBounds:
    def test_derived_quantities(self):
        b = EigenBounds(1.0, 9.0)
        assert b.condition_number == 9.0
        assert b.theta == 5.0
        assert b.delta == 4.0

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            EigenBounds(0.0, 1.0)
        with pytest.raises(ConfigurationError):
            EigenBounds(2.0, 1.0)
        for lo, hi in ((1.0, np.inf), (np.nan, 2.0), (1.0, np.nan)):
            with pytest.raises(ConfigurationError):
                EigenBounds(lo, hi)


class TestLanczos:
    def test_single_iteration(self):
        diag, off = lanczos_tridiagonal([0.5], [])
        assert diag.tolist() == [2.0]
        assert off.size == 0

    def test_shapes(self):
        diag, off = lanczos_tridiagonal([0.5, 0.25, 0.2], [0.1, 0.2, 0.3])
        assert len(diag) == 3 and len(off) == 2

    def test_known_values(self):
        diag, off = lanczos_tridiagonal([1.0, 0.5], [0.25])
        assert diag[0] == pytest.approx(1.0)
        assert diag[1] == pytest.approx(2.0 + 0.25)
        assert off[0] == pytest.approx(0.5)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            lanczos_tridiagonal([], [])
        with pytest.raises(ConfigurationError):
            lanczos_tridiagonal([1.0, 1.0], [])  # not enough betas
        with pytest.raises(ConfigurationError):
            lanczos_tridiagonal([-1.0], [])
        for alphas, betas in (([1.0, 1.0], [np.nan]), ([np.nan], []),
                              ([1.0, np.inf], [0.5]), ([1.0, 1.0], [np.inf])):
            with pytest.raises(ConfigurationError):
                lanczos_tridiagonal(alphas, betas)

    def test_condition_estimate_defaults_on_unusable_coefficients(self):
        assert condition_estimate([1.0, 1.0], [np.nan], default=7.0) == 7.0
        assert condition_estimate([1.0, np.inf], [0.5], default=7.0) == 7.0
        assert condition_estimate([], [], default=7.0) == 7.0
        assert condition_estimate([0.5], [], default=7.0) == 1.0


class TestSturmBisection:
    """The Ritz extremes are the repo's own bits: a Sturm-count bisection
    in IEEE double arithmetic, the same on every CPU and LAPACK build."""

    SIZES = (1, 2, 8, 25, 1160, 2300)
    #: sha256 of every ``(lam_min, lam_max)`` of :meth:`cases`, in order.
    DIGEST = "5555d3dc6af26c19cfaf9ff30c61479d918ffa4c7a38243d82d608ac4457fa3b"

    def cases(self):
        """Random SPD Lanczos tridiagonals (positive CG coefficients)."""
        rng = np.random.default_rng(45)
        for k in self.SIZES:
            yield lanczos_tridiagonal(rng.uniform(0.05, 1.0, k),
                                      rng.uniform(0.0, 1.0, k - 1))

    @staticmethod
    def ends(diag, off):
        return (tridiagonal_extreme(diag, off),
                tridiagonal_extreme(diag, off, largest=True))

    def test_ends_match_dense_eigvalsh_and_repeat_bit_for_bit(self):
        digest = hashlib.sha256()
        for diag, off in self.cases():
            ends = self.ends(diag, off)
            assert self.ends(diag, off) == ends
            dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
            true = np.linalg.eigvalsh(dense)
            ulp = np.finfo(np.float64).eps * np.abs(true).max()
            assert abs(ends[0] - true[0]) <= 8 * ulp, len(diag)
            assert abs(ends[1] - true[-1]) <= 8 * ulp, len(diag)
            digest.update(np.array(ends).tobytes())
        assert digest.hexdigest() == self.DIGEST

    def test_diagonal_matrix_gives_its_entries_exactly(self):
        assert self.ends([3.0, 0.5, 2.0], [0.0, 0.0]) == (0.5, 3.0)
        assert self.ends([0.25], []) == (0.25, 0.25)

    def test_rejects_mismatched_or_overflowing_entries(self):
        with pytest.raises(ConfigurationError):
            tridiagonal_extreme([1.0, 2.0], [])
        with pytest.raises(ConfigurationError):
            tridiagonal_extreme([1.0, 2.0], [1e200])
        assert condition_estimate([1e-300, 1.0], [1.0], default=7.0) == 7.0


class TestEstimateFromRealCG:
    def test_bounds_bracket_true_spectrum(self, rng):
        n = 16
        kx, ky = random_spd_faces(rng, n, n)
        A = StencilOperator2D.assemble_sparse(kx, ky).toarray()
        true = np.linalg.eigvalsh(A)
        op = serial_operator(Grid2D(n, n), kx, ky)
        b = Field.from_global(op.tile, 1, rng.standard_normal((n, n)))
        result = cg_solve(op, b, max_iters=40, eps=1e-14)
        bounds = spectrum_bounds(op, "none", result.alphas, result.betas)
        # The widened Ritz lam_min sits close below the spectrum, the
        # Gershgorin lam_max above it.
        assert true[0] * 0.9 <= bounds.lam_min <= true[0] * 1.02
        assert bounds.lam_max >= true[-1]

    def test_ritz_interior_without_safety(self, rng):
        n = 12
        kx, ky = random_spd_faces(rng, n, n)
        A = StencilOperator2D.assemble_sparse(kx, ky).toarray()
        true = np.linalg.eigvalsh(A)
        op = serial_operator(Grid2D(n, n), kx, ky)
        b = Field.from_global(op.tile, 1, rng.standard_normal((n, n)))
        result = cg_solve(op, b, max_iters=30, eps=1e-14)
        bounds = estimate_eigenvalues(result.alphas, result.betas)
        assert bounds.lam_min >= true[0] - 1e-8
        assert bounds.lam_max <= true[-1] + 1e-8

    def test_crooked_pipe_condition_number(self):
        g, kx, ky, bg = crooked_pipe_system(32)
        op = serial_operator(g, kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        result = cg_solve(op, b, max_iters=30, eps=1e-14)
        bounds = spectrum_bounds(op, "none", result.alphas, result.betas)
        assert bounds.lam_min == pytest.approx(1.0, rel=0.1)
        assert bounds.condition_number > 10

    def test_invalid_safety(self):
        """One widening is left, on ``lam_min`` and below 1; the Ritz
        estimator itself takes none."""
        assert 0.0 < LAM_MIN_SAFETY < 1.0
        with pytest.raises(TypeError):
            estimate_eigenvalues([1.0], [], safety=(1.2, 1.05))
        op = serial_operator(Grid2D(4, 4), *random_spd_faces(
            np.random.default_rng(1), 4, 4))
        bounds = spectrum_bounds(op, "diagonal", [0.5], [])
        assert bounds.lam_min == 2.0 * LAM_MIN_SAFETY
        assert bounds.lam_max == 2.0
        with pytest.raises(ConfigurationError):
            spectrum_bounds(op, "none", [0.5, 0.5], [np.nan])


class TestSpectrumEnclosure:
    """``lam_max_bound`` is a proof, not an estimate: it lies on or above
    every eigenvalue of ``A`` (no preconditioner) or of ``M^{-1} A``
    (diagonal, block Jacobi), and every rank count gives the same value."""

    CASES = ((12, 10), (5, 6, 7))

    @staticmethod
    def spectrum(op, faces, kind):
        """Eigenvalues of ``M^{-1} A`` from the assembled ``A`` and the
        preconditioner applied to every unit vector."""
        A = StencilOperator2D.assemble_sparse(*faces).toarray()
        M = make_local_preconditioner(op, kind)
        shape = op.tile.shape
        inv_m = np.empty_like(A)
        for i in range(A.shape[0]):
            e = np.zeros(A.shape[0])
            e[i] = 1.0
            r = Field.from_global(op.tile, op.halo, e.reshape(shape))
            z = op.new_field()
            M.apply(r, z)
            inv_m[:, i] = z.interior.ravel()
        return np.linalg.eigvals(inv_m @ A).real

    @pytest.mark.parametrize("shape", CASES)
    def test_bound_encloses_the_spectrum(self, rng, shape):
        faces = random_spd_faces(rng, *shape, scale=3.0)
        grid = Grid2D(*shape[::-1]) if len(shape) == 2 \
            else Grid3D(*shape[::-1])
        op = serial_operator(grid, *faces)
        kinds = ("none", "diagonal") + (("block_jacobi",)
                                        if len(shape) == 2 else ())
        for kind in kinds:
            lam = self.spectrum(op, faces, kind)
            bound = lam_max_bound(op, kind)
            assert lam.max() <= bound, kind
            assert lam.min() > 0.0, kind
        # The unpreconditioned bound is Gershgorin's max(2d - 1), to the
        # bit of the operator's own diagonal.
        assert lam_max_bound(op) == (2.0 * op.diagonal() - 1.0).max()

    @pytest.mark.parametrize("shape", CASES)
    def test_one_and_two_ranks_agree(self, rng, shape):
        faces = random_spd_faces(rng, *shape, scale=3.0)
        grid = Grid2D(*shape[::-1]) if len(shape) == 2 \
            else Grid3D(*shape[::-1])
        bg = rng.standard_normal(shape)
        kinds = ("none", "diagonal") + (("block_jacobi",)
                                        if len(shape) == 2 else ())
        op = serial_operator(grid, *faces)
        for kind in kinds:
            options = SolverOptions(solver="chebyshev", eps=1e-14,
                                    max_iters=10, eigen_warmup_iters=4,
                                    preconditioner=kind)
            tops = {r.result.eigen_bounds[1]
                    for size in (1, 2)
                    for r in solve_on_ranks(grid, faces, bg, options,
                                            size).ranks}
            assert tops == {lam_max_bound(op, kind)}, kind


class TestChebyshevEpsilon:
    def test_degree_zero(self):
        assert chebyshev_epsilon(0, EigenBounds(1.0, 10.0)) == 1.0

    def test_monotone_decreasing_in_degree(self):
        b = EigenBounds(1.0, 100.0)
        eps = [chebyshev_epsilon(m, b) for m in range(0, 30, 3)]
        assert all(a > c for a, c in zip(eps, eps[1:]))

    def test_tight_spectrum_damps_fast(self):
        assert chebyshev_epsilon(5, EigenBounds(1.0, 2.0)) < 1e-3

    def test_equal_bounds(self):
        assert chebyshev_epsilon(3, EigenBounds(2.0, 2.0)) == 0.0

    def test_negative_degree(self):
        with pytest.raises(ConfigurationError):
            chebyshev_epsilon(-1, EigenBounds(1.0, 2.0))


class TestIterationBounds:
    def test_dot_reduction_grows_with_inner_steps(self):
        b = EigenBounds(1.0, 1000.0)
        r = [iteration_bounds(b, m).dot_reduction for m in (1, 5, 10, 20)]
        assert all(x < y for x, y in zip(r, r[1:]))

    def test_kappa_pcg_less_than_kappa_cg(self):
        b = EigenBounds(1.0, 500.0)
        ib = iteration_bounds(b, 10)
        assert ib.kappa_pcg < ib.kappa_cg
        assert ib.k_outer < ib.k_total

    def test_matches_paper_formulas(self):
        b = EigenBounds(1.0, 100.0)
        ib = iteration_bounds(b, 4, tolerance=1e-6)
        eps_m = chebyshev_epsilon(4, b)
        assert ib.kappa_pcg == pytest.approx((1 + eps_m) / (1 - eps_m))
        assert ib.k_total == pytest.approx(
            0.5 * np.sqrt(100.0) * np.log(2e6))

    def test_predicts_real_outer_iteration_drop(self):
        """The Eq. 6/7 ratio should approximate the measured CG/PPCG ratio."""
        from repro.solvers import ppcg_solve
        g, kx, ky, bg = crooked_pipe_system(48)
        op_cg = serial_operator(g, kx, ky)
        b1 = Field.from_global(op_cg.tile, 1, bg)
        cg = cg_solve(op_cg, b1, eps=1e-10)
        op_pp = serial_operator(g, kx, ky, halo=1)
        b2 = Field.from_global(op_pp.tile, 1, bg)
        pp = ppcg_solve(op_pp, b2, eps=1e-10, inner_steps=10)
        bounds = EigenBounds(*pp.eigen_bounds)
        predicted = iteration_bounds(bounds, 10, tolerance=1e-10)
        measured_ratio = cg.iterations / max(pp.iterations, 1)
        # same order of magnitude (bounds are worst-case, measured is better)
        assert predicted.dot_reduction == pytest.approx(measured_ratio,
                                                        rel=0.9)
        assert measured_ratio > 3

    def test_invalid_tolerance(self):
        with pytest.raises(ConfigurationError):
            iteration_bounds(EigenBounds(1.0, 2.0), 3, tolerance=2.0)
