"""Lanczos recurrence: worked examples, Paige-style diagnostics, and the
exactness/containment/scaling properties."""

from dataclasses import fields

import numpy as np
import pytest
import scipy.sparse as sp

from funmlab import (
    ChebyshevExpansion,
    DomainError,
    IntervalUnion,
    PrecisionConfig,
    ScalarFunction,
    StructuralError,
    SymmetricOperator,
    apply_function,
    eig_tridiagonal,
    exact_matrix_function,
    lanczos_decompose,
    lanczos_emulated,
    minimax,
    orthogonality_defect,
    three_term_residual,
)
from funmlab.lanczos import ExactArithmetic

EPS = np.finfo(float).eps


def random_unit_symmetric(seed, n):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    m = m + m.T
    m /= np.linalg.norm(m, 2)
    return SymmetricOperator.from_dense(m, symmetrize=True, norm_hint=1.0), rng


class TestDecompose:
    def test_identity_breaks_down_at_step_one(self):
        a = SymmetricOperator.from_diagonal(np.ones(5))
        rng = np.random.default_rng(0)
        x = rng.standard_normal(5)
        dec = lanczos_decompose(a, x, 4)
        assert dec.steps_taken == 1
        assert dec.breakdown
        np.testing.assert_allclose(dec.alphas, [1.0], atol=1e-14)

    def test_two_step_ritz_values_exact(self):
        a = SymmetricOperator.from_diagonal([1.0, 2.0])
        x = np.array([1.0, 1.0]) / np.sqrt(2.0)
        dec = lanczos_decompose(a, x, 2)
        ritz = eig_tridiagonal(dec.tridiagonal()).values
        np.testing.assert_allclose(ritz, [1.0, 2.0], atol=1e-12)

    def test_hand_executed_swap_matrix(self):
        # A = [[0,1],[1,0]], x = e1: alpha1=0, beta2=1, alpha2=0
        a = SymmetricOperator.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        dec = lanczos_decompose(a, np.array([1.0, 0.0]), 2)
        np.testing.assert_allclose(dec.alphas, [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(dec.betas, [1.0], atol=1e-15)

    def test_beta_vanishes_at_full_dimension(self):
        # Claim: a k >= n run reaches beta_{n+1} = 0, up to roundoff scale
        a, rng = random_unit_symmetric(1, 7)
        dec = lanczos_decompose(a, rng.standard_normal(7), 7)
        assert dec.beta_next <= 1e-10

    def test_diagonal_breaks_down_by_dimension(self):
        a = SymmetricOperator.from_diagonal(np.arange(1.0, 8.0))
        rng = np.random.default_rng(1)
        dec = lanczos_decompose(a, rng.standard_normal(7), 20)
        assert dec.steps_taken <= 7
        assert dec.breakdown

    def test_zero_vector_rejected(self):
        a = SymmetricOperator.from_diagonal([1.0, 2.0])
        with pytest.raises(DomainError):
            lanczos_decompose(a, np.zeros(2), 2)

    def test_bad_k_rejected(self):
        a = SymmetricOperator.from_diagonal([1.0, 2.0])
        with pytest.raises(StructuralError):
            lanczos_decompose(a, np.ones(2), 0)

    def test_basis_norms_near_one(self):
        a, rng = random_unit_symmetric(2, 50)
        dec = lanczos_decompose(a, rng.standard_normal(50), 20)
        drift = np.abs(np.linalg.norm(dec.q_basis, axis=0) - 1.0)
        assert np.max(drift) <= (50 + 4) * EPS


class TestApplyFunction:
    def test_constant_returns_input(self):
        a, rng = random_unit_symmetric(3, 12)
        x = rng.standard_normal(12)
        dec = lanczos_decompose(a, x, 5)
        y = apply_function(dec, lambda t: np.ones_like(t))
        np.testing.assert_allclose(y, x, atol=1e-12)

    def test_identity_function_on_diagonal(self):
        a = SymmetricOperator.from_diagonal([1.0, 2.0, 3.0])
        x = np.ones(3)
        dec = lanczos_decompose(a, x, 3)
        y = apply_function(dec, lambda t: t)
        np.testing.assert_allclose(y, [1.0, 2.0, 3.0], atol=1e-10)

    def test_sqrt_full_dimension_matches_oracle(self):
        a = SymmetricOperator.from_diagonal([1.0, 4.0])
        x = np.array([1.0, 1.0])
        dec = lanczos_decompose(a, x, 2)
        y = apply_function(dec, np.sqrt)
        np.testing.assert_allclose(y, [1.0, 2.0], atol=1e-10)

    def test_domain_error_at_ritz_value(self):
        a = SymmetricOperator.from_diagonal([-1.0, 1.0])
        dec = lanczos_decompose(a, np.array([1.0, 1.0]), 2)
        with pytest.raises(DomainError):
            apply_function(dec, np.sqrt)


class TestDiagnostics:
    def test_residual_within_paige_bound_double(self):
        # ||E|| <= k (2 n^{3/2} + 7) ||A|| eps at working precision
        a, rng = random_unit_symmetric(4, 50)
        dec = lanczos_decompose(a, rng.standard_normal(50), 20)
        residual = three_term_residual(dec, a)
        assert residual <= 20 * (2 * 50**1.5 + 7) * 1.0 * EPS

    def test_residual_tiny_for_identity(self):
        a = SymmetricOperator.from_diagonal(np.ones(6))
        dec = lanczos_decompose(a, np.ones(6), 3)
        assert three_term_residual(dec, a) <= 1e-14

    def test_orthogonality_defect_single_step(self):
        a = SymmetricOperator.from_diagonal(np.ones(4))
        dec = lanczos_decompose(a, np.ones(4), 1)
        assert orthogonality_defect(dec) <= 1e-14

    def test_orthogonality_defect_double_precision_ceiling(self):
        a = SymmetricOperator.from_diagonal(np.linspace(1.0, 30.0, 100))
        rng = np.random.default_rng(9)
        dec = lanczos_decompose(a, rng.standard_normal(100), 30)
        assert orthogonality_defect(dec) <= 1e-8


class TestProperties:
    def test_polynomial_exactness(self):
        # p(A) x = ||x|| Q p(T) e1 for degree < k, Chebyshev coefficients
        for seed in range(25):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(3, 41))
            degree = int(rng.integers(0, min(n, 12)))
            a, _ = random_unit_symmetric(seed + 1000, n)
            spectrum = np.linalg.eigvalsh(a.to_dense())
            poly = ChebyshevExpansion(
                (spectrum[0] - 1e-9, spectrum[-1] + 1e-9),
                rng.uniform(-1.0, 1.0, degree + 1),
            )
            x = rng.standard_normal(n)
            dec = lanczos_decompose(a, x, degree + 1)
            y = apply_function(dec, poly.evaluate)
            ref = exact_matrix_function(a, poly.evaluate, x)
            assert np.linalg.norm(y - ref) <= 1e-8 * np.linalg.norm(x)

    def test_ritz_containment_double(self):
        for seed in range(10):
            a, rng = random_unit_symmetric(seed, 40)
            spectrum = np.linalg.eigvalsh(a.to_dense())
            dec = lanczos_decompose(a, rng.standard_normal(40), 15)
            ritz = eig_tridiagonal(dec.tridiagonal()).values
            assert ritz[0] >= spectrum[0] - 1e-10
            assert ritz[-1] <= spectrum[-1] + 1e-10

    def test_function_bound_against_minimax_oracle(self):
        # ||f(A)x - y|| <= 2 delta_k ||x|| + 1e-8 ||x||
        for seed in range(10):
            a, rng = random_unit_symmetric(seed + 50, 30)
            x = rng.standard_normal(30)
            k = int(rng.integers(3, 10))
            spectrum = np.linalg.eigvalsh(a.to_dense())
            _, delta = minimax(
                ScalarFunction("exp", np.exp),
                IntervalUnion.single(spectrum[0], spectrum[-1]),
                k - 1,
            )
            dec = lanczos_decompose(a, x, k)
            y = apply_function(dec, np.exp)
            err = np.linalg.norm(exact_matrix_function(a, np.exp, x) - y)
            assert err <= (2.0 * delta + 1e-8) * np.linalg.norm(x)

    def test_scaling_invariance(self):
        a, rng = random_unit_symmetric(77, 25)
        x = rng.standard_normal(25)
        for c in (3.0, -0.5, 1e-4):
            y1 = apply_function(lanczos_decompose(a, x, 8), np.exp)
            y2 = apply_function(lanczos_decompose(a, c * x, 8), np.exp)
            assert np.linalg.norm(y2 - c * y1) <= 1e-10 * np.linalg.norm(c * y1)

    def test_truncated_t_used_after_breakdown(self):
        # breakdown keeps the computed block; function application still works
        a = SymmetricOperator.from_diagonal([1.0, 1.0, 2.0])
        x = np.array([1.0, 1.0, 1.0])
        dec = lanczos_decompose(a, x, 3)
        assert dec.breakdown and dec.steps_taken == 2
        y = apply_function(dec, lambda t: t)
        np.testing.assert_allclose(y, [1.0, 1.0, 2.0], atol=1e-12)


def assert_same_decomposition(got, want):
    for field in fields(want):
        g, w = getattr(got, field.name), getattr(want, field.name)
        if isinstance(w, np.ndarray):
            assert g.shape == w.shape and g.tobytes() == w.tobytes(), field.name
            assert g.flags.c_contiguous == w.flags.c_contiguous, field.name
            assert g.flags.f_contiguous == w.flags.f_contiguous, field.name
        else:
            assert type(g) is type(w) and g == w, field.name


def _prefix_operators():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((30, 30))
    yield "dense", SymmetricOperator.from_dense(m + m.T), 12
    s = sp.random(40, 40, density=0.1, random_state=3)
    yield "csr", SymmetricOperator.from_sparse(s + s.T), 12
    yield "diagonal", SymmetricOperator.from_diagonal(rng.uniform(-1, 1, 25)), 12
    yield "gram", SymmetricOperator.gram(rng.standard_normal((20, 15))), 12
    # breaks down after four steps, so prefixes past it repeat the short run
    yield "breakdown", SymmetricOperator.from_diagonal([1.0, 2.0, 3.0, 4.0]), 7


class TestPrefix:
    """A prefix of a long run is the short run, bit for bit."""

    @pytest.mark.parametrize(
        "a,k", [(a, k) for _, a, k in _prefix_operators()],
        ids=[name for name, _, _ in _prefix_operators()],
    )
    def test_prefix_equals_short_run(self, a, k):
        x = np.random.default_rng(5).standard_normal(a.n)
        full = lanczos_decompose(a, x, k)
        for j in range(1, k + 1):
            assert_same_decomposition(full.prefix(j), lanczos_decompose(a, x, j))

    def test_breakdown_case_breaks_down(self):
        a = SymmetricOperator.from_diagonal([1.0, 2.0, 3.0, 4.0])
        dec = lanczos_decompose(a, np.ones(4), 7)
        assert dec.breakdown and dec.steps_taken == 4
        assert not dec.prefix(4).breakdown and dec.prefix(5).breakdown

    def test_emulated_prefix_equals_short_run(self):
        a, rng = random_unit_symmetric(9, 30)
        x = rng.standard_normal(30)
        cfg = PrecisionConfig(16)
        full, _ = lanczos_emulated(a, x, 15, cfg)
        for j in range(1, 16):
            assert_same_decomposition(full.prefix(j), lanczos_emulated(a, x, j, cfg)[0])

    def test_bad_length_rejected(self):
        a = SymmetricOperator.from_diagonal([1.0, 2.0])
        dec = lanczos_decompose(a, np.ones(2), 2)
        for j in (0, 3):
            with pytest.raises(StructuralError):
                dec.prefix(j)


def owning_array(view):
    """The array that owns the memory behind ``view``."""
    while view.base is not None:
        view = view.base
    return view


class TestExactArithmetic:
    def test_sub_scaled_rounds_as_sub_of_scale_and_writes_no_argument(self):
        rng = np.random.default_rng(15)
        w, v = rng.standard_normal(1000), rng.standard_normal(1000)
        w_in, v_in = w.copy(), v.copy()
        for c in (0.0, -0.0, 1.5, -3e-300, 7e200):
            out = ExactArithmetic().sub_scaled(w, c, v)
            assert out.tobytes() == (w_in - c * v_in).tobytes()
            assert not np.shares_memory(out, w) and not np.shares_memory(out, v)
        assert w.tobytes() == w_in.tobytes() and v.tobytes() == v_in.tobytes()


class TestBasisLayout:
    """The basis is stored as rows, handed out as an F-contiguous view."""

    def test_full_run_is_a_view_of_the_row_buffer(self):
        a, rng = random_unit_symmetric(12, 50)
        dec = lanczos_decompose(a, rng.standard_normal(50), 20)
        assert dec.steps_taken == 20 and not dec.breakdown
        assert dec.q_basis.shape == (50, 20) and dec.q_basis.flags.f_contiguous
        assert not dec.q_basis.flags.c_contiguous
        assert owning_array(dec.q_basis).size == 20 * 50

    @pytest.mark.parametrize("emulated", [False, True], ids=["exact", "emulated"])
    def test_breakdown_frees_the_unused_rows(self, emulated):
        # two eigenvalues and n = 4^8: every step is exact, and beta_3 is 0
        n, k = 4**8, 30
        a = SymmetricOperator.from_diagonal(np.repeat([1.0, 3.0], n // 2))
        x = np.ones(n)
        dec = (lanczos_emulated(a, x, k, PrecisionConfig(52))[0] if emulated
               else lanczos_decompose(a, x, k))
        assert dec.breakdown and dec.steps_taken == 2
        assert dec.q_basis.shape == (n, 2) and dec.q_basis.flags.f_contiguous
        # s n floats are kept, not the k n of the buffer the run filled
        assert owning_array(dec.q_basis).size == 2 * n

    def test_prefix_is_an_f_ordered_copy(self):
        a, rng = random_unit_symmetric(13, 40)
        full = lanczos_decompose(a, rng.standard_normal(40), 25)
        for j in (2, 7, 24):
            part = full.prefix(j)
            assert part.q_basis.flags.f_contiguous and part.q_basis.base is None
            assert not np.shares_memory(part.q_basis, full.q_basis)
            assert part.q_next.flags.c_contiguous
