"""Conjugate gradient: worked solves, the Lanczos equivalence, A-norm
optimality, and the finite-arithmetic consequence at reduced precision."""

import numpy as np
import pytest

from funmlab import (
    IntervalUnion,
    NonpositiveCurvatureError,
    PrecisionConfig,
    SymmetricOperator,
    cg_emulated,
    cg_solve,
    lanczos_cg_equivalence,
    minimax,
)
from funmlab.chebyshev import ChebyshevExpansion
from funmlab.functions import inverse_function
from funmlab.operators import EigenDecomposition, exact_matrix_function
from reference import anorm_optimality_check

INV = inverse_function()


def diag_operator(values):
    return SymmetricOperator.from_diagonal(np.asarray(values, dtype=float))


def random_spd(seed, n, kappa):
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    values = np.geomspace(1.0 / kappa, 1.0, n)
    mat = (basis * values) @ basis.T
    return SymmetricOperator.from_dense(mat, symmetrize=True, norm_hint=1.0), rng


class TestSolve:
    def test_identity_converges_in_one_step(self):
        a = diag_operator([1.0, 1.0, 1.0])
        b = np.array([2.0, -1.0, 0.5])
        trace = cg_solve(a, b, 5)
        assert trace.iterations == 1
        np.testing.assert_allclose(trace.solution, b, atol=1e-14)

    def test_two_by_two_exact_inverse(self):
        a = diag_operator([1.0, 2.0])
        trace = cg_solve(a, np.array([1.0, 1.0]), 2)
        np.testing.assert_allclose(trace.solution, [1.0, 0.5], atol=1e-12)
        assert trace.residual_norms[-1] <= 1e-12

    def test_nonpositive_curvature_detected(self):
        a = diag_operator([1.0, -1.0])
        with pytest.raises(NonpositiveCurvatureError):
            cg_solve(a, np.array([0.1, 1.0]), 3)

    def test_stop_tol(self):
        a, rng = random_spd(0, 20, 10.0)
        b = rng.standard_normal(20)
        trace = cg_solve(a, b, 50, stop_tol=1e-8)
        assert trace.residual_norms[-1] <= 1e-8 * np.linalg.norm(b)
        assert trace.iterations < 50

    def test_trace_length_consistency(self):
        a, rng = random_spd(1, 10, 5.0)
        trace = cg_solve(a, rng.standard_normal(10), 6)
        assert len(trace.iterates) == len(trace.residual_norms)
        assert len(trace.alphas) == trace.iterations

    def test_exact_termination_on_distinct_eigenvalues(self):
        values = np.array([0.5, 1.0, 2.0, 3.0, 7.0])
        a = diag_operator(values)
        rng = np.random.default_rng(2)
        b = rng.standard_normal(5)
        trace = cg_solve(a, b, 5)
        exact = b / values
        assert (
            np.linalg.norm(trace.solution - exact)
            <= 1e-9 * np.linalg.norm(exact)
        )

    def test_residual_orthogonality_double(self):
        for seed in range(5):
            a, rng = random_spd(seed + 10, 30, 100.0)
            b = rng.standard_normal(30)
            trace = cg_solve(a, b, 12)
            residuals = [b - a.matvec(y) for y in trace.iterates[:-1]]
            for i, ri in enumerate(residuals):
                for rj in residuals[:i]:
                    cosine = abs(ri @ rj) / (
                        np.linalg.norm(ri) * np.linalg.norm(rj)
                    )
                    assert cosine <= 1e-8


class TestEquivalence:
    def test_identity_single_step(self):
        a = diag_operator([1.0, 1.0, 1.0])
        b = np.array([1.0, 2.0, 3.0])
        assert lanczos_cg_equivalence(a, b, 1) <= 1e-14

    def test_full_dimension_diagonal(self):
        a = diag_operator([1.0, 2.0, 5.0])
        rng = np.random.default_rng(3)
        assert lanczos_cg_equivalence(a, rng.standard_normal(3), 3) <= 1e-10

    def test_random_spd_partial_iterations(self):
        a, rng = random_spd(4, 50, 100.0)
        b = rng.standard_normal(50)
        assert lanczos_cg_equivalence(a, b, 10) <= 1e-8


class TestOptimality:
    def test_full_dimension_trivial(self):
        a = diag_operator([1.0, 3.0])
        b = np.array([1.0, -1.0])
        assert anorm_optimality_check(a, b, 2, trial_polys=50, seed=0)

    def test_small_diagonal(self):
        a = diag_operator([1.0, 2.0])
        assert anorm_optimality_check(a, np.array([1.0, 1.0]), 1,
                                      trial_polys=100, seed=1)

    def test_spread_diagonal(self):
        a = diag_operator([1.0, 10.0, 100.0])
        assert anorm_optimality_check(a, np.array([1.0, 1.0, 1.0]), 2,
                                      trial_polys=500, seed=2)


    def test_one_eigendecomposition_for_all_candidates(self, monkeypatch):
        a, rng = random_spd(5, 30, 50.0)
        b = rng.standard_normal(30)
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(mat, *args, **kwargs):
            calls.append(mat.shape)
            return eigh(mat, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        assert anorm_optimality_check(a, b, 4, trial_polys=60, seed=3)
        assert calls == [(30, 30)]

    def test_candidates_equal_oracle_bit_for_bit(self):
        a, rng = random_spd(6, 25, 20.0)
        x = rng.standard_normal(25)
        eig = EigenDecomposition(*np.linalg.eigh(a.to_dense()))
        poly = ChebyshevExpansion((0.05, 1.0), rng.uniform(-1.0, 1.0, size=5))
        expected = exact_matrix_function(a, poly.evaluate, x)
        assert eig.apply(poly.evaluate, x).tobytes() == expected.tobytes()


class TestSqrtKappaBound:
    def test_diagonal_spectra(self):
        # ||A^{-1} b - y_k|| <= sqrt(kappa) dbar_k ||b|| with dbar on points
        for kappa, n in ((10.0, 10), (100.0, 12)):
            values = np.geomspace(1.0 / kappa, 1.0, n)
            a = diag_operator(values)
            rng = np.random.default_rng(int(kappa))
            b = rng.standard_normal(n)
            exact = b / values
            points = IntervalUnion.from_points(values)
            for k in range(1, n - 1):
                trace = cg_solve(a, b, k)
                error = np.linalg.norm(exact - trace.solution)
                _, dbar = minimax(INV, points, k - 1)
                bound = np.sqrt(kappa) * dbar * np.linalg.norm(b)
                assert error <= bound * (1.0 + 1e-6)


class TestFiniteArithmeticConsequence:
    def test_error_within_greenbaum_bound(self):
        # emulated CG error <= 2 kappa dbar_k ||b|| with eta tied to precision
        for bits in (16, 24):
            cfg = PrecisionConfig(bits)
            for kappa, n in ((10.0, 10), (50.0, 12)):
                values = np.geomspace(1.0 / kappa, 1.0, n)
                a = diag_operator(values)
                rng = np.random.default_rng((8, bits, int(kappa)))
                b = rng.standard_normal(n)
                exact = b / values
                eta = min(
                    8.0 * n * kappa * 2.0 ** (-bits), 0.4 / (n * kappa)
                )
                domain = IntervalUnion.from_points(values, radius=eta)
                for k in (2, 4, 6, 8):
                    trace = cg_emulated(a, b, k, cfg)
                    error = np.linalg.norm(exact - trace.solution)
                    _, dbar = minimax(INV, domain, k - 1)
                    bound = 2.0 * kappa * dbar * np.linalg.norm(b)
                    assert error <= bound
