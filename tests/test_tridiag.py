"""Tridiagonal eigensolver: examples, the backward-stability contract,
interlacing, and the bounded-polynomial perturbation property."""

import numpy as np
import pytest

from funmlab import (
    ChebyshevExpansion,
    DomainError,
    StructuralError,
    SymmetricOperator,
    TridiagonalMatrix,
    apply_scalar_to_e1,
    eig_tridiagonal,
    exact_matrix_function,
)
from reference import reconstruct

EPS = np.finfo(float).eps


def random_tridiagonal(rng, k):
    return TridiagonalMatrix(rng.standard_normal(k), rng.standard_normal(k - 1))


class TestExamples:
    def test_already_diagonal(self):
        t = TridiagonalMatrix(np.array([2.0, 5.0]), np.array([0.0]))
        dec = eig_tridiagonal(t)
        np.testing.assert_allclose(dec.values, [2.0, 5.0])
        np.testing.assert_allclose(np.abs(dec.vectors), np.eye(2), atol=1e-15)

    def test_two_by_two_swap(self):
        t = TridiagonalMatrix(np.array([0.0, 0.0]), np.array([1.0]))
        dec = eig_tridiagonal(t)
        np.testing.assert_allclose(dec.values, [-1.0, 1.0], atol=1e-15)
        expected = np.array([1.0, 1.0]) / np.sqrt(2.0)
        for col, sign_pattern in zip(dec.vectors.T, ([1.0, -1.0], [1.0, 1.0])):
            target = expected * np.asarray(sign_pattern)
            assert (
                np.linalg.norm(col - target) < 1e-12
                or np.linalg.norm(col + target) < 1e-12
            )

    def test_scalar_case(self):
        t = TridiagonalMatrix(np.array([7.0]), np.zeros(0))
        dec = eig_tridiagonal(t)
        np.testing.assert_array_equal(dec.values, [7.0])
        np.testing.assert_array_equal(dec.vectors, [[1.0]])

    def test_shape_validation(self):
        with pytest.raises(StructuralError):
            TridiagonalMatrix(np.array([1.0, 2.0]), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(DomainError):
            TridiagonalMatrix(np.array([1.0, bad, 3.0]), np.array([1.0, 2.0]))
        with pytest.raises(DomainError):
            TridiagonalMatrix(np.array([1.0, 2.0, 3.0]), np.array([bad, 2.0]))


class TestContract:
    @pytest.mark.parametrize("k", [2, 5, 20, 60, 120, 200, 400])
    def test_backward_stability(self, k):
        rng = np.random.default_rng(k)
        t = random_tridiagonal(rng, k)
        dec = eig_tridiagonal(t)
        dense = t.to_dense()
        norm_t = np.linalg.norm(dense, 2)
        backward = np.linalg.norm(reconstruct(dec) - dense, 2)
        defect = np.linalg.norm(dec.vectors.T @ dec.vectors - np.eye(k), 2)
        assert backward <= 100.0 * k * EPS * norm_t
        assert defect <= 100.0 * k * EPS
        assert np.all(np.diff(dec.values) >= 0)

    def test_matches_lapack_eigenvalues(self):
        rng = np.random.default_rng(17)
        t = random_tridiagonal(rng, 40)
        mine = eig_tridiagonal(t).values
        lapack = np.linalg.eigvalsh(t.to_dense())
        np.testing.assert_allclose(mine, lapack, atol=1e-12 * np.max(np.abs(lapack)))

    def test_interlacing_of_principal_submatrix(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            k = int(rng.integers(3, 40))
            t = random_tridiagonal(rng, k)
            full = eig_tridiagonal(t).values
            leading = eig_tridiagonal(
                TridiagonalMatrix(t.diag[:-1], t.offdiag[:-1])
            ).values
            slack = 1e-12 * max(1.0, np.max(np.abs(full)))
            assert np.all(full[:-1] <= leading + slack)
            assert np.all(leading <= full[1:] + slack)

    def test_norm_bound_dominates_dense_norm(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            t = random_tridiagonal(rng, int(rng.integers(1, 30)))
            assert t.norm_bound() >= np.linalg.norm(t.to_dense(), 2) - 1e-12


class TestApplyScalarToE1:
    def test_constant_function(self):
        rng = np.random.default_rng(2)
        t = random_tridiagonal(rng, 12)
        y = apply_scalar_to_e1(t, lambda x: np.ones_like(x))
        e1 = np.zeros(12)
        e1[0] = 1.0
        assert np.linalg.norm(y - e1) <= 1e-13

    def test_identity_gives_first_column(self):
        rng = np.random.default_rng(3)
        t = random_tridiagonal(rng, 9)
        y = apply_scalar_to_e1(t, lambda x: x)
        first_col = t.to_dense()[:, 0]
        assert np.linalg.norm(y - first_col) <= 1e-12 * t.norm_bound()

    def test_matches_dense_eigh(self):
        rng = np.random.default_rng(5)
        k = 300
        t = random_tridiagonal(rng, k)
        values, vectors = np.linalg.eigh(t.to_dense())
        f = np.exp
        expected = vectors @ (f(values) * vectors[0, :])
        y = apply_scalar_to_e1(t, f)
        f_norm = np.max(np.abs(f(values)))
        assert np.linalg.norm(y - expected) <= 1e-12 * f_norm

    def test_sqrt_of_diagonal(self):
        t = TridiagonalMatrix(np.array([1.0, 4.0]), np.array([0.0]))
        y = apply_scalar_to_e1(t, np.sqrt)
        np.testing.assert_allclose(y, [1.0, 0.0], atol=1e-14)


class TestPerturbationBound:
    def test_bounded_polynomial_drift(self):
        # ||p(A - E) x - p(A) x|| <= 2 k^3 C ||E|| / eta for ||E|| <= eta
        cases = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(5, 25))
            k = int(rng.integers(2, 10))
            m = rng.standard_normal((n, n))
            m = (m + m.T) / 2.0
            spectrum = np.linalg.eigvalsh(m)
            eta = 10.0 ** rng.uniform(-6, -2)
            hull = (spectrum[0] - eta, spectrum[-1] + eta)

            coeffs = rng.uniform(-1.0, 1.0, size=k)
            poly = ChebyshevExpansion(hull, coeffs)
            grid = np.linspace(*hull, 2001)
            bound_c = float(np.max(np.abs(poly.evaluate(grid))))

            e = rng.standard_normal((n, n))
            e = (e + e.T) / 2.0
            e *= rng.uniform(0.1, 1.0) * eta / np.linalg.norm(e, 2)
            norm_e = np.linalg.norm(e, 2)

            x = rng.standard_normal(n)
            x /= np.linalg.norm(x)
            a_op = SymmetricOperator.from_dense(m, symmetrize=True)
            perturbed = SymmetricOperator.from_dense(m - e, symmetrize=True)
            drift = np.linalg.norm(
                exact_matrix_function(perturbed, poly.evaluate, x)
                - exact_matrix_function(a_op, poly.evaluate, x)
            )
            assert drift <= 2.0 * k**3 * bound_c * norm_e / eta + 1e-12
            cases += 1
        assert cases == 100
