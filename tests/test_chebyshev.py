"""Chebyshev recurrences, Clenshaw evaluation, and the coefficient-magnitude bound."""

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebinterpolate

from funmlab import ChebyshevExpansion, StructuralError
from reference import cheb_T, cheb_U, evaluate_direct


class TestRecurrences:
    def test_first_kind_base_cases(self):
        assert cheb_T(0, 0.7) == 1.0
        assert cheb_T(1, 0.7) == 0.7

    def test_t2_by_recurrence(self):
        assert cheb_T(2, 0.5) == pytest.approx(-0.5, abs=1e-15)

    def test_t3_closed_form(self):
        # 4 x^3 - 3 x at x = 2
        assert cheb_T(3, 2.0) == pytest.approx(26.0, abs=1e-12)

    def test_second_kind_base_cases(self):
        assert cheb_U(1, 0.3) == pytest.approx(0.6, abs=1e-15)
        assert cheb_U(0, 0.9) == 1.0

    def test_u_at_one_is_index_plus_one(self):
        assert cheb_U(3, 1.0) == pytest.approx(4.0, abs=1e-12)

    def test_u2_at_zero(self):
        assert cheb_U(2, 0.0) == pytest.approx(-1.0, abs=1e-15)

    def test_u_negative_index_is_zero(self):
        assert cheb_U(-1, 0.3) == 0.0
        assert cheb_U(-5, 0.3) == 0.0

    def test_negative_first_kind_index_rejected(self):
        with pytest.raises(StructuralError):
            cheb_T(-1, 0.5)

    def test_u_magnitude_bound_on_unit_interval(self):
        # |U_k| <= k + 1 on [-1, 1]
        grid = np.linspace(-1.0, 1.0, 100_001)
        for k in (1, 5, 20, 60, 100):
            assert np.max(np.abs(cheb_U(k, grid))) <= k + 1 + 1e-9

    def test_vectorized_matches_scalar(self):
        xs = np.linspace(-2.0, 2.0, 11)
        np.testing.assert_allclose(
            cheb_T(7, xs), [cheb_T(7, float(x)) for x in xs], rtol=1e-13
        )


class TestExpansion:
    def test_clenshaw_matches_direct_sum(self):
        rng = np.random.default_rng(0)
        xs = np.linspace(-3.0, 5.0, 257)
        for degree in (5, 40, 200):
            coeffs = rng.uniform(-1.0, 1.0, degree + 1)
            p = ChebyshevExpansion((-3.0, 5.0), coeffs)
            direct = evaluate_direct(p, xs)
            clenshaw = p.evaluate(xs)
            scale = np.max(np.abs(direct)) + 1.0
            assert np.max(np.abs(direct - clenshaw)) <= 1e-11 * scale

    def test_degree_property(self):
        p = ChebyshevExpansion((-1.0, 1.0), np.array([1.0, 0.0, 2.0, 0.0]))
        assert p.degree == 2
        assert ChebyshevExpansion((-1.0, 1.0), np.zeros(4)).degree == 0


class TestInterpolation:
    """Chebyshev interpolants of bounded functions have bounded coefficients."""

    def test_abs_coefficients_within_2c(self):
        # |c_i| <= 2 max|f| for interpolants of bounded f
        coeffs = chebinterpolate(np.abs, 30)
        assert np.max(np.abs(coeffs)) <= 2.0 + 1e-9

    def test_coefficient_bound_for_bounded_polynomials(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            degree = int(rng.integers(1, 30))
            raw = ChebyshevExpansion((-1.0, 1.0), rng.uniform(-1, 1, degree + 1))
            grid = np.linspace(-1.0, 1.0, 4001)
            bound_c = float(np.max(np.abs(raw.evaluate(grid))))
            again = chebinterpolate(raw.evaluate, degree)
            assert np.max(np.abs(again)) <= 2.0 * bound_c + 1e-9
