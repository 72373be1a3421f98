"""Applications: soft step, matrix exponentials, top singular value,
and polynomial acceleration."""

import numpy as np
import pytest

from funmlab import (
    AccelPolySpec,
    AccelTerm,
    DomainError,
    StructuralError,
    SymmetricOperator,
    accelerated_poly_apply,
    exact_matrix_function,
    matrix_exp_apply,
    matrix_exp_psd_apply,
    soft_sign_poly,
    soft_step_apply,
    step_reduction_operator,
    top_singular_value,
)
from funmlab.applications import StepParams, accel_iterations


def random_psd(seed, n, top):
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    values = rng.uniform(0.0, top, n)
    values[-1] = top
    mat = (basis * values) @ basis.T
    return (
        SymmetricOperator.from_dense(mat, symmetrize=True, norm_hint=top),
        rng,
    )


class TestSoftStep:
    def test_ramp_vanishes_at_origin(self):
        assert soft_sign_poly(0.0, 50) == 0.0
        params = StepParams(0.2, 0.05)
        assert params.step_values(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_ramp_is_one_at_one(self):
        assert soft_sign_poly(1.0, 50) == 1.0
        params = StepParams(0.2, 0.05)
        assert params.step_values(np.array([1.0]))[0] == 1.0

    @pytest.mark.parametrize("gamma,eps", [(0.1, 0.01), (0.2, 0.05)])
    def test_grid_containment(self, gamma, eps):
        params = StepParams(gamma, eps)
        grid = np.linspace(-0.5, 0.5, 10_001)
        s = params.step_values(grid)
        assert np.all((s >= 0.0) & (s <= 1.0))
        assert np.all(s[grid <= -gamma] <= eps)
        assert np.all(s[grid >= gamma] >= 1.0 - eps)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            StepParams(0.6, 0.01)
        with pytest.raises(DomainError):
            StepParams(0.1, 1.5)

    def test_apply_matches_oracle(self):
        rng = np.random.default_rng(20)
        n = 30
        basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
        values = rng.uniform(-0.5, 0.5, n)
        mat = (basis * values) @ basis.T
        b = SymmetricOperator.from_dense(mat, symmetrize=True, norm_hint=0.5)
        x = rng.standard_normal(n)
        params = StepParams(0.2, 0.05)
        y = soft_step_apply(b, x, params)
        reference = exact_matrix_function(b, params.step_values, x)
        assert np.linalg.norm(y - reference) <= 1e-10 * np.linalg.norm(x)

    def test_requires_certified_norm(self):
        b = SymmetricOperator.from_dense([[0.4]], norm_hint=0.9)
        with pytest.raises(DomainError):
            soft_step_apply(b, np.ones(1), StepParams(0.2, 0.05))

    def test_reduction_operator_matches_dense_formula(self):
        a, rng = random_psd(21, 20, 4.0)
        red = step_reduction_operator(a, lam=1.0)
        assert red.norm_hint == 0.5
        v = rng.standard_normal(20)
        dense = a.to_dense()
        reference = dense @ np.linalg.solve(dense + np.eye(20), v) - 0.5 * v
        assert np.linalg.norm(red.matvec(v) - reference) <= 1e-9


class TestMatrixExp:
    def test_zero_matrix_returns_input(self):
        a = SymmetricOperator.from_diagonal(np.zeros(4))
        x = np.array([1.0, -2.0, 0.0, 3.0])
        np.testing.assert_allclose(matrix_exp_apply(a, x, 1e-8), x, atol=1e-12)
        np.testing.assert_allclose(
            matrix_exp_psd_apply(a, x, 1e-6), x, atol=1e-10
        )

    def test_small_diagonal_example(self):
        a = SymmetricOperator.from_diagonal([-1.0, 0.0])
        y = matrix_exp_apply(a, np.array([1.0, 1.0]), 1e-8)
        np.testing.assert_allclose(y, [np.exp(-1.0), 1.0], atol=1e-7)

    def test_psd_scalar_example(self):
        a = SymmetricOperator.from_diagonal([np.log(2.0)])
        y = matrix_exp_psd_apply(a, np.array([1.0]), 1e-6)
        assert y[0] == pytest.approx(0.5, abs=1e-5)

    def test_general_bound_on_random_instances(self):
        for i in range(20):
            rng = np.random.default_rng((30, i))
            n = 30
            m = rng.standard_normal((n, n))
            m = m + m.T
            m *= 2.0 / np.linalg.norm(m, 2)
            a = SymmetricOperator.from_dense(m, symmetrize=True, norm_hint=2.0)
            x = rng.standard_normal(n)
            eps = 10.0 ** rng.uniform(-8, -4)
            y = matrix_exp_apply(a, x, eps)
            reference = exact_matrix_function(a, np.exp, x)
            bound = eps * np.exp(2.0 * 2.0) * np.linalg.norm(x)
            assert np.linalg.norm(reference - y) <= bound

    def test_psd_bound_on_random_instances(self):
        for i in range(20):
            a, rng = random_psd((31, i)[1] * 97 + 5, 40, 10.0)
            x = rng.standard_normal(40)
            eps = 10.0 ** rng.uniform(-6, -3)
            y = matrix_exp_psd_apply(a, x, eps)
            reference = exact_matrix_function(a, lambda t: np.exp(-t), x)
            assert np.linalg.norm(reference - y) <= eps * np.linalg.norm(x)

    def test_eps_validated(self):
        a = SymmetricOperator.from_diagonal([1.0])
        with pytest.raises(DomainError):
            matrix_exp_apply(a, np.ones(1), 0.0)
        with pytest.raises(DomainError):
            matrix_exp_psd_apply(a, np.ones(1), 1.0)


class TestTopSingularValue:
    def test_diagonal_gap(self):
        estimate, _ = top_singular_value(np.diag([3.0, 1.0]), 0.1,
                                         trials=5, seed=0)
        assert estimate >= 2.7

    def test_identity(self):
        estimate, _ = top_singular_value(np.eye(4), 0.1, trials=1, seed=0)
        assert estimate >= 0.9

    def test_estimate_never_exceeds_true_sigma(self):
        rng = np.random.default_rng(33)
        b = rng.standard_normal((25, 15))
        sigma = np.linalg.norm(b, 2)
        estimate, u = top_singular_value(b, 0.2, trials=3, seed=1)
        assert estimate <= sigma * (1.0 + 1e-10)
        assert estimate >= (1.0 - 0.2) * sigma
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)

    def test_normalized_power_floor(self):
        # ||y|| >= (1 - tol)/n for successful trials of the normalized power
        from funmlab.applications import (
            power_iteration_exponent,
            top_singular_iterations,
            _single_power_trial,
        )

        rng = np.random.default_rng(34)
        b = rng.standard_normal((30, 20))
        gram = SymmetricOperator.gram(b)
        n = 20
        delta = 0.2
        q = power_iteration_exponent(n, delta)
        k = top_singular_iterations(n, delta)
        _, _, vt = np.linalg.svd(b, full_matrices=False)
        top_vector = vt[0]
        hits = 0
        good_overlap_trials = 0
        for trial in range(20):
            out = _single_power_trial(b, gram, q, k, 35, trial)
            assert out is not None
            ratio, _, norm_y = out
            if ratio >= (1.0 - delta) * np.linalg.norm(b, 2):
                hits += 1
            # the floor is guaranteed on the >= 1/2-probability event that
            # the start vector overlaps the top singular vector by 1/sqrt(n)
            z = np.random.default_rng((35, trial, 0)).integers(0, 2, n) * 2.0 - 1.0
            if abs(z @ top_vector) >= 1.0 / np.sqrt(n):
                good_overlap_trials += 1
                assert norm_y >= (1.0 - 1e-6) / n
        assert hits >= 10  # success probability >= 1/2
        assert good_overlap_trials >= 10

    def test_delta_validated(self):
        with pytest.raises(DomainError):
            top_singular_value(np.eye(2), 0.8, trials=1)


class TestAcceleration:
    def test_constant_spec_returns_input(self):
        spec = AccelPolySpec((AccelTerm([1.0], [0.0, 1.0], 0, 1.0),))
        rng = np.random.default_rng(40)
        m = rng.standard_normal((15, 15))
        m = m + m.T
        m /= np.linalg.norm(m, 2) * 1.01
        a = SymmetricOperator.from_dense(m, symmetrize=True, norm_hint=1.0)
        x = rng.standard_normal(15)
        y = accelerated_poly_apply(a, x, spec, 1e-6)
        np.testing.assert_allclose(y, x, atol=1e-9)

    def test_certification_rejects_oversized_inner(self):
        with pytest.raises(StructuralError):
            AccelPolySpec((AccelTerm([1.0], [0.0, 2.0], 3, 1.0),))

    def test_certification_rejects_undersized_outer_bound(self):
        with pytest.raises(StructuralError):
            AccelPolySpec((AccelTerm([5.0], [0.0, 1.0], 1, 1.0),))

    def test_total_bound_dominates_grid_max(self):
        spec = AccelPolySpec(
            (
                AccelTerm([0.5, 0.25], [0.0, 1.0], 3, 0.75),
                AccelTerm([1.0], [0.0, 0.5], 5, 1.0),
            )
        )
        grid = np.linspace(-1.0, 1.0, 4001)
        assert np.max(np.abs(spec.evaluate(grid))) <= spec.total_bound

    @pytest.mark.parametrize("power,n", [(100, 160), (400, 260)])
    def test_monomial_acceleration(self, power, n):
        rng = np.random.default_rng(power)
        m = rng.standard_normal((n, n))
        m = m + m.T
        m /= np.linalg.norm(m, 2) * 1.02
        a = SymmetricOperator.from_dense(m, symmetrize=True, norm_hint=1.0)
        x = rng.standard_normal(n)
        spec = AccelPolySpec.monomial(power)
        eps = 1e-4
        iterations = accel_iterations(spec, eps)
        assert iterations <= 3.0 * np.sqrt(power * np.log(power / eps))
        assert iterations < power
        y = accelerated_poly_apply(a, x, spec, eps)
        reference = exact_matrix_function(a, lambda t: t ** power, x)
        assert (
            np.linalg.norm(reference - y)
            <= eps * spec.total_bound * np.linalg.norm(x)
        )

    def test_requires_unit_norm_hint(self):
        a = SymmetricOperator.from_diagonal([2.0])
        with pytest.raises(DomainError):
            accelerated_poly_apply(a, np.ones(1), AccelPolySpec.monomial(3), 0.1)
