"""Operator storage, matvec contracts, Matrix Market ingestion, dense oracle."""

import math

import numpy as np
import pytest

from funmlab import (
    CapacityError,
    DomainError,
    MatrixMarketParseError,
    StructuralError,
    SymmetricOperator,
    UnsupportedFormatError,
    exact_matrix_function,
    load_matrix_market,
    spectral_range,
)
from funmlab import operators


def random_symmetric(rng, n, norm=1.0):
    m = rng.standard_normal((n, n))
    m = m + m.T
    m *= norm / np.linalg.norm(m, 2)
    return 0.5 * (m + m.T)


class TestMatvec:
    def test_identity(self):
        a = SymmetricOperator.from_diagonal([1.0, 1.0])
        np.testing.assert_array_equal(a.matvec(np.array([3.0, -1.0])), [3.0, -1.0])

    def test_diagonal_action(self):
        a = SymmetricOperator.from_diagonal([1.0, 2.0, 4.0])
        np.testing.assert_array_equal(a.matvec(np.ones(3)), [1.0, 2.0, 4.0])

    def test_dense_hand_multiplication(self):
        a = SymmetricOperator.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_array_equal(a.matvec(np.array([2.0, 5.0])), [5.0, 2.0])

    def test_one_by_one(self):
        a = SymmetricOperator.from_diagonal([2.0])
        np.testing.assert_array_equal(a.matvec(np.array([3.0])), [6.0])

    def test_dimension_mismatch(self):
        a = SymmetricOperator.from_diagonal([1.0, 2.0])
        with pytest.raises(StructuralError):
            a.matvec(np.ones(3))

    def test_rejects_nonfinite_vector(self):
        a = SymmetricOperator.from_diagonal([1.0, 2.0])
        with pytest.raises(DomainError):
            a.matvec(np.array([1.0, np.nan]))

    def test_accuracy_against_fsum_reference(self):
        # Requirement-2 shape: ||matvec - A v|| <= n^2 eps ||A|| ||v||
        eps = np.finfo(float).eps
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 51))
            m = random_symmetric(rng, n)
            v = rng.standard_normal(n)
            a = SymmetricOperator.from_dense(m)
            reference = np.array(
                [math.fsum((m[i] * v).tolist()) for i in range(n)]
            )
            err = np.linalg.norm(a.matvec(v) - reference)
            bound = n**2 * eps * np.linalg.norm(m, 2) * np.linalg.norm(v)
            assert err <= bound

    def test_sparse_matches_dense(self):
        import scipy.sparse as sp

        rng = np.random.default_rng(3)
        m = random_symmetric(rng, 30)
        m[np.abs(m) < 0.05] = 0.0
        m = 0.5 * (m + m.T)
        dense = SymmetricOperator.from_dense(m)
        sparse = SymmetricOperator.from_sparse(sp.csr_matrix(m))
        v = rng.standard_normal(30)
        np.testing.assert_allclose(sparse.matvec(v), dense.matvec(v), rtol=1e-12)

    def test_gram_is_psd_composition(self):
        rng = np.random.default_rng(4)
        b = rng.standard_normal((12, 7))
        g = SymmetricOperator.gram(b)
        assert g.n == 7
        v = rng.standard_normal(7)
        np.testing.assert_allclose(g.matvec(v), b.T @ (b @ v), rtol=1e-12)
        assert v @ g.matvec(v) >= 0


def left_to_right(mat, v):
    """Pure-Python ``mat @ v``: each row summed term by term from the left."""
    v = v.tolist()
    out = []
    for row in mat.tolist():
        acc = row[0] * v[0]
        for a, b in zip(row[1:], v[1:]):
            acc += a * b
        out.append(acc)
    return np.array(out)


def spread(rng, shape):
    """Entries spanning 1e-20 .. 1e20, so that any reordering shows."""
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 21, shape)


def spread_symmetric(rng, n):
    """Symmetric, with row 0 all zeros and row 1 an exact cancellation.

    Against a negative vector, row 0 sums only ``-0.0`` terms and must give
    ``-0.0``; row 1 adds ``v[2]`` and ``-v[3]`` with ``v[2] == v[3]`` among
    signed zeros and must give ``+0.0``.
    """
    m = spread(rng, (n, n))
    m = m + m.T
    m[0, :] = m[:, 0] = 0.0
    if n >= 4:
        m[1, :] = m[:, 1] = 0.0
        m[1, 2] = m[2, 1] = 1.0
        m[1, 3] = m[3, 1] = -1.0
    return m


def negative_spread(rng, n):
    v = -np.abs(spread(rng, n))
    if n >= 4:
        v[3] = v[2]
    return v


class TestAscendingOrder:
    """Dense products are bit-identical to a left-to-right loop."""

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 300, 1500])
    def test_dense(self, n):
        rng = np.random.default_rng(n)
        m = spread_symmetric(rng, n)
        a = SymmetricOperator.from_dense(m)
        v = spread(rng, n)
        assert a.matvec(v).tobytes() == left_to_right(m, v).tobytes()
        v = negative_spread(rng, n)
        out = a.matvec(v)
        assert out.tobytes() == left_to_right(m, v).tobytes()
        assert np.signbit(out[0])
        if n >= 4:
            assert out[1] == 0.0 and not np.signbit(out[1])

    @pytest.mark.parametrize(
        "shape",
        [
            (500, 250),
            (30, 45),
            (200, 1),
            (1, 200),
            (7, 7),
            (2, 1000),
            (1000, 2),
            (3, 5000),
            (5000, 3),
            (9000, 20),
            (20, 9000),
        ],
    )
    def test_dense_factor_gram(self, shape):
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        big = spread(rng, (2 * shape[0], 2 * shape[1]))
        v = spread(rng, shape[1])
        c_ordered = np.ascontiguousarray(big[: shape[0], : shape[1]])
        for b in (c_ordered, np.asfortranarray(c_ordered), big[::2, ::2]):
            expected = left_to_right(b.T, left_to_right(b, v))
            assert SymmetricOperator.gram(b).matvec(v).tobytes() == expected.tobytes()

    def test_layouts_and_views(self):
        rng = np.random.default_rng(11)
        big = spread_symmetric(rng, 120)
        v = spread(rng, 60)
        for m in (np.asfortranarray(big[:60, :60]), big[::2, ::2], big[1::2, 1::2]):
            a = SymmetricOperator.from_dense(m)
            assert a.matvec(v).tobytes() == left_to_right(m, v).tobytes()
        wide = spread(rng, (90, 150))
        w = spread(rng, 50)
        for b in (np.asfortranarray(wide[:, :50]), wide[::3, ::3], wide[:40, 100:]):
            expected = left_to_right(b.T, left_to_right(b, w))
            assert SymmetricOperator.gram(b).matvec(w).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("shape", [(1, 300), (300, 1), (40, 300), (300, 40)])
    def test_ascending_matvec_any_shape_and_layout(self, shape):
        rng = np.random.default_rng(shape[0] + shape[1])
        mat = spread(rng, shape)
        v = spread(rng, shape[1])
        expected = left_to_right(mat.T, left_to_right(mat, v)).tobytes()
        for b in (mat, np.asfortranarray(mat)):
            assert SymmetricOperator.gram(b).matvec(v).tobytes() == expected

    def test_strided_input_vector(self):
        """A column of a basis array, as Lanczos passes it, is a strided view."""
        rng = np.random.default_rng(12)
        basis = spread(rng, (200, 7))
        v = basis[:, 3]
        assert not v.flags.c_contiguous
        m = spread_symmetric(rng, 200)
        dense = SymmetricOperator.from_dense(m).matvec(v)
        assert dense.tobytes() == left_to_right(m, v).tobytes()
        for b in (spread(rng, (90, 200)), spread(rng, (1, 200))):
            expected = left_to_right(b.T, left_to_right(b, v))
            assert SymmetricOperator.gram(b).matvec(v).tobytes() == expected.tobytes()

    def test_zero_sums_recomputed_exactly_when_present(self, monkeypatch):
        """einsum starts from +0.0, so only entries summing to zero are redone."""
        calls = []
        reduce_ascending = operators._reduce_ascending

        def spy(cols, v):
            calls.append(cols.shape[1])
            return reduce_ascending(cols, v)

        monkeypatch.setattr(operators, "_reduce_ascending", spy)
        rng = np.random.default_rng(13)
        m = spread_symmetric(rng, 50)
        # a unit diagonal gives the all-zero row 0 and the cancelling row 1
        # nonzero sums, so no entry sums to zero
        a = SymmetricOperator.from_dense(m + np.diag(np.full(50, 1.0)))
        v = spread(rng, 50)
        assert np.all(a.matvec(v) != 0.0)
        assert calls == []
        a = SymmetricOperator.from_dense(m)
        v = negative_spread(rng, 50)
        out = a.matvec(v)
        assert calls == [int(np.count_nonzero(out == 0.0))] and calls[0] >= 2
        assert out.tobytes() == left_to_right(m, v).tobytes()
        # row 0: every term is -0.0; row 1: 1 * v[2] - 1 * v[3] cancels exactly
        assert out[0] == 0.0 and np.signbit(out[0])
        assert out[1] == 0.0 and not np.signbit(out[1])

    def test_einsum_rounds_each_product(self):
        """Bit identity needs einsum's float64 loop not to fuse multiply-add.

        ``(1+e)**2`` rounds to ``1+2e``, so the rounded sum below is exactly
        zero; a fused multiply-add (as a numpy build with an FMA SIMD
        baseline, for example on aarch64 NEON, may use) keeps ``e**2``.
        """
        e = 2.0**-30
        cols = np.repeat(np.array([[-(1 + 2 * e)], [1 + e]]), 2, axis=1)
        out = np.einsum("ji,j->i", cols, np.array([1.0, 1 + e]), optimize=False)
        assert out.tolist() == [0.0, 0.0]


class TestConstruction:
    def test_rejects_asymmetric_dense(self):
        with pytest.raises(StructuralError):
            SymmetricOperator.from_dense(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_symmetrize_produces_exact_symmetry(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((8, 8))
        a = SymmetricOperator.from_dense(m, symmetrize=True)
        dense = a.to_dense()
        assert np.array_equal(dense, dense.T)

    def test_rejects_nonsquare(self):
        with pytest.raises(StructuralError):
            SymmetricOperator.from_dense(np.ones((2, 3)))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: SymmetricOperator.from_dense(np.zeros((0, 0))),
            lambda: SymmetricOperator.from_sparse(np.zeros((0, 0))),
            lambda: SymmetricOperator.from_diagonal([]),
            lambda: SymmetricOperator.gram(np.zeros((3, 0))),
        ],
        ids=["dense", "sparse", "diagonal", "gram"],
    )
    def test_dimension_zero_rejected(self, build):
        with pytest.raises(StructuralError, match="at least 1"):
            build()

    def test_gram_factor_without_rows_is_the_zero_operator(self):
        a = SymmetricOperator.gram(np.zeros((0, 3)))
        out = a.matvec(np.array([1.0, -2.0, 3.0]))
        assert a.n == 3 and out.tolist() == [0.0, 0.0, 0.0]
        assert np.all(np.signbit(out))

    def test_negative_norm_hint_rejected(self):
        with pytest.raises(StructuralError):
            SymmetricOperator.from_diagonal([1.0], norm_hint=-1.0)


class TestExactMatrixFunction:
    def test_sqrt_of_diagonal(self):
        a = SymmetricOperator.from_diagonal([1.0, 4.0])
        y = exact_matrix_function(a, np.sqrt, np.array([1.0, 1.0]))
        np.testing.assert_allclose(y, [1.0, 2.0], atol=1e-14)

    def test_identity_spectrum(self):
        a = SymmetricOperator.from_diagonal(np.ones(5))
        x = np.arange(5.0)
        y = exact_matrix_function(a, np.exp, x)
        np.testing.assert_allclose(y, np.e * x, rtol=1e-14)

    def test_square_of_swap(self):
        # [[0,1],[1,0]]^2 = I by hand
        a = SymmetricOperator.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        y = exact_matrix_function(a, lambda t: t**2, np.array([1.0, 0.0]))
        np.testing.assert_allclose(y, [1.0, 0.0], atol=1e-14)

    def test_identity_function_matches_matvec(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            m = random_symmetric(rng, 20)
            a = SymmetricOperator.from_dense(m)
            x = rng.standard_normal(20)
            y = exact_matrix_function(a, lambda t: t, x)
            ref = a.matvec(x)
            assert np.linalg.norm(y - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_composition_commutes_on_diagonal(self):
        vals = np.array([0.5, 1.0, 2.0, 3.0])
        a = SymmetricOperator.from_diagonal(vals)
        g = lambda t: t**2 + 1.0
        f = np.log
        x = np.array([1.0, -2.0, 0.5, 4.0])
        composed = exact_matrix_function(a, lambda t: f(g(t)), x)
        staged = exact_matrix_function(
            SymmetricOperator.from_diagonal(g(vals)), f, x
        )
        np.testing.assert_allclose(composed, staged, rtol=1e-12)

    def test_oracle_cap(self):
        a = SymmetricOperator.from_diagonal(np.ones(10))
        with pytest.raises(CapacityError):
            exact_matrix_function(a, np.exp, np.ones(10), cap=5)

    def test_domain_error_names_eigenvalue(self):
        a = SymmetricOperator.from_diagonal([1.0, -4.0])
        with pytest.raises(DomainError, match="-4"):
            exact_matrix_function(a, np.sqrt, np.ones(2))


class TestSpectralRange:
    def test_three_step_probe_recovers_spectrum(self):
        a = SymmetricOperator.from_diagonal([1.0, 2.0, 3.0])
        lo, hi = spectral_range(a, probe_iters=3, margin=0.0)
        assert math.isclose(lo, 1.0, abs_tol=1e-9)
        assert math.isclose(hi, 3.0, abs_tol=1e-9)

    def test_single_eigenvalue(self):
        a = SymmetricOperator.from_diagonal(np.ones(4))
        lo, hi = spectral_range(a, probe_iters=2, margin=0.0)
        assert math.isclose(lo, 1.0, abs_tol=1e-10)
        assert math.isclose(hi, 1.0, abs_tol=1e-10)

    def test_margin_widens_to_cover(self):
        a = SymmetricOperator.from_diagonal([-1.0, 1.0])
        lo, hi = spectral_range(a, probe_iters=2, margin=0.1)
        assert lo <= -1.0 and hi >= 1.0

    def test_requires_positive_iters(self):
        a = SymmetricOperator.from_diagonal([1.0])
        with pytest.raises(StructuralError):
            spectral_range(a, probe_iters=0)


class TestMatrixMarket:
    def _write(self, tmp_path, text, name="m.mtx"):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_coordinate_roundtrip(self, tmp_path):
        path = self._write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 3\n"
            "1 1 2.0\n"
            "2 1 1.0\n"
            "2 2 3.0\n",
        )
        a = load_matrix_market(path)
        assert a.n == 2
        np.testing.assert_array_equal(a.matvec(np.array([1.0, 0.0])), [2.0, 1.0])

    def test_scalar_file(self, tmp_path):
        path = self._write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 5.0\n",
        )
        a = load_matrix_market(path)
        assert a.n == 1
        np.testing.assert_array_equal(a.matvec(np.array([2.0])), [10.0])

    def test_array_format(self, tmp_path):
        path = self._write(
            tmp_path,
            "%%MatrixMarket matrix array real symmetric\n2 2\n2.0\n1.0\n3.0\n",
        )
        a = load_matrix_market(path)
        np.testing.assert_array_equal(
            a.to_dense(), np.array([[2.0, 1.0], [1.0, 3.0]])
        )

    def test_complex_field_rejected(self, tmp_path):
        path = self._write(
            tmp_path,
            "%%MatrixMarket matrix coordinate complex symmetric\n"
            "1 1 1\n1 1 5.0 1.0\n",
        )
        with pytest.raises(UnsupportedFormatError):
            load_matrix_market(path)

    def test_nonsquare_rejected(self, tmp_path):
        path = self._write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n2 3 1\n1 1 5.0\n",
        )
        with pytest.raises(StructuralError):
            load_matrix_market(path)

    def test_asymmetric_general_rejected(self, tmp_path):
        path = self._write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n1 2 1.0\n2 1 2.0\n",
        )
        with pytest.raises(StructuralError):
            load_matrix_market(path)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = self._write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 1\n1 oops 1.0\n",
        )
        with pytest.raises(MatrixMarketParseError, match="line 3"):
            load_matrix_market(path)

    def test_missing_header(self, tmp_path):
        path = self._write(tmp_path, "2 2 1\n1 1 5.0\n")
        with pytest.raises(MatrixMarketParseError, match="line 1"):
            load_matrix_market(path)

    def test_truncated_entries(self, tmp_path):
        path = self._write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 5.0\n",
        )
        with pytest.raises(MatrixMarketParseError):
            load_matrix_market(path)

    def test_pattern_rejected(self, tmp_path):
        path = self._write(
            tmp_path,
            "%%MatrixMarket matrix coordinate pattern symmetric\n1 1 1\n1 1\n",
        )
        with pytest.raises(UnsupportedFormatError):
            load_matrix_market(path)

    def test_loaded_sparse_feeds_lanczos(self, tmp_path):
        from funmlab import lanczos_apply

        path = self._write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 4\n1 1 2.0\n2 2 3.0\n3 3 5.0\n3 1 1.0\n",
        )
        a = load_matrix_market(path)
        x = np.array([1.0, 1.0, 1.0])
        y = lanczos_apply(a, x, 3, lambda t: t)
        np.testing.assert_allclose(y, a.to_dense() @ x, atol=1e-10)
