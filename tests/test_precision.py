"""Emulated arithmetic contracts, the stability diagnostics, and the
Paige-inequality reports."""

import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import ArpackNoConvergence

from funmlab import (
    PrecisionConfig,
    SolverFailureError,
    StructuralError,
    SymmetricOperator,
    cg_emulated,
    lanczos_decompose,
    lanczos_emulated,
    paige_report,
    precision,
    round_to,
)
from funmlab.hardspectrum import hard_spectrum
from funmlab.lanczos import LanczosDecomposition
from funmlab.precision import (
    EmulatedArithmetic,
    _round_scalar,
    _spectral_extremes,
    diagnose,
)

BITS = (8, 16, 24, 52)


def ragged_csr(seed):
    """Symmetric CSR with an empty row, single-entry rows and rows of
    unequal length (row 0 is empty; row 1 holds only its diagonal)."""
    rng = np.random.default_rng(seed)
    n = 40
    m = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.15)
    m = np.triu(m) + np.triu(m, 1).T
    m[0, :] = m[:, 0] = 0.0
    m[1, :] = m[:, 1] = 0.0
    m[1, 1] = 1.5 + 2.0**-20
    op = SymmetricOperator.from_sparse(sp.csr_matrix(m))
    lengths = np.diff(op.data.indptr)
    assert lengths[0] == 0 and 1 in lengths[1:] and lengths.max() >= 4
    return op, rng


def diagonally_dominant(a):
    """``a`` shifted by more than its largest absolute row sum: SPD."""
    shift = abs(a.data).sum(axis=1).max() + 1.0
    return SymmetricOperator.from_sparse(a.data + shift * sp.identity(a.n))


def refuse_to_densify(self):
    raise AssertionError(f"to_dense called on {self!r}")


def spy(monkeypatch, owner, name):
    """Record the arguments of every call to ``owner.name`` from now on."""
    calls = []
    real = getattr(owner, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def random_unit_symmetric(seed, n):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    m = m + m.T
    m /= np.linalg.norm(m, 2)
    return SymmetricOperator.from_dense(m, symmetrize=True, norm_hint=1.0), rng


class TestRoundTo:
    def test_exactly_representable_values(self):
        cfg = PrecisionConfig(8)
        assert round_to(1.0, cfg) == 1.0
        assert round_to(1.5, PrecisionConfig(4)) == 1.5
        assert round_to(0.0, cfg) == 0.0
        assert round_to(-2.0, cfg) == -2.0

    def test_rounds_to_nearest_neighbor(self):
        # spacing at 1.0 with 8 mantissa bits is 2^-8; 1 + 2^-10 rounds down
        assert round_to(1.0 + 2.0**-10, PrecisionConfig(8)) == 1.0
        assert round_to(1.0 + 2.0**-9 + 2.0**-12, PrecisionConfig(8)) == 1.0 + 2.0**-8

    def test_ties_to_even(self):
        cfg = PrecisionConfig(8)
        # 1 + 2^-9 sits exactly between 1 and 1 + 2^-8; even mantissa wins
        assert round_to(1.0 + 2.0**-9, cfg) == 1.0
        assert round_to(1.0 + 3.0 * 2.0**-9, cfg) == 1.0 + 2.0**-7

    def test_identity_at_full_width(self):
        cfg = PrecisionConfig(52)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(1000) * 10.0 ** rng.integers(-200, 200, 1000)
        np.testing.assert_array_equal(round_to(x, cfg), x)

    def test_array_and_scalar_agree(self):
        cfg = PrecisionConfig(11)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(100)
        array_out = round_to(x, cfg)
        scalar_out = np.array([round_to(float(v), cfg) for v in x])
        np.testing.assert_array_equal(array_out, scalar_out)

    # magnitudes whose roundings stay normal and finite at every width
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(
        magnitude=st.floats(min_value=2.0**-1000, max_value=2.0**1000),
        negative=st.booleans(),
        bits=st.integers(min_value=4, max_value=52),
    )
    def test_matches_mpmath_at_bits_plus_one(self, magnitude, negative, bits):
        # mpmath rounds to nearest, ties to even, at prec = bits + 1
        x = -magnitude if negative else magnitude
        with mpmath.workprec(bits + 1):
            expected = float(mpmath.mpf(x))
        cfg = PrecisionConfig(bits)
        assert round_to(x, cfg) == expected
        assert round_to(np.array([x]), cfg)[0] == expected

    def test_bits_range_validated(self):
        with pytest.raises(StructuralError):
            PrecisionConfig(3)
        with pytest.raises(StructuralError):
            PrecisionConfig(53)

    def test_relative_error_contract_large_sample(self):
        # |fl(x o y) - x o y| <= eps |x o y| for a million operand pairs
        rng = np.random.default_rng(2)
        n = 1_000_000
        x = rng.uniform(-100.0, 100.0, n)
        y = rng.uniform(-100.0, 100.0, n)
        y[y == 0.0] = 1.0
        for bits in (8, 16, 37):
            cfg = PrecisionConfig(bits)
            ar = EmulatedArithmetic(cfg)
            for op in (np.add, np.subtract, np.multiply, np.divide):
                exact = op(x, y)
                emulated = ar.round(exact)
                assert np.all(
                    np.abs(emulated - exact) <= cfg.epsilon * np.abs(exact)
                )
            exact_sqrt = np.sqrt(np.abs(x))
            assert np.all(
                np.abs(ar.round(exact_sqrt) - exact_sqrt)
                <= cfg.epsilon * exact_sqrt
            )

    def test_round_to_nearest_against_exact_rationals(self):
        # half-ulp optimality: the emulated result is within 2^-(bits+1)
        # of the exact rational result, relatively
        rng = np.random.default_rng(3)
        for bits in (6, 13, 24):
            cfg = PrecisionConfig(bits)
            half_ulp = Fraction(1, 2 ** (bits + 1))
            for _ in range(400):
                x = float(round_to(float(rng.uniform(-8, 8)), cfg))
                y = float(round_to(float(rng.uniform(0.25, 8)), cfg))
                for op in ("add", "sub", "mul", "div"):
                    exact = {
                        "add": Fraction(x) + Fraction(y),
                        "sub": Fraction(x) - Fraction(y),
                        "mul": Fraction(x) * Fraction(y),
                        "div": Fraction(x) / Fraction(y),
                    }[op]
                    computed = {
                        "add": x + y,
                        "sub": x - y,
                        "mul": x * y,
                        "div": x / y,
                    }[op]
                    rounded = Fraction(float(round_to(computed, cfg)))
                    if exact == 0:
                        assert rounded == 0
                        continue
                    # double rounding (op in double, then to bits) stays
                    # within a half ulp plus the double-precision crumb
                    slack = half_ulp + Fraction(1, 2**52)
                    assert abs(rounded - exact) <= slack * abs(exact)


class TestEmulatedMatvec:
    def test_requirement_two_shape(self):
        # ||fl(A w) - A w|| <= 2 n^{3/2} ||A|| ||w|| eps
        for bits in (10, 16, 24):
            cfg = PrecisionConfig(bits)
            ar = EmulatedArithmetic(cfg)
            for seed in range(10):
                rng = np.random.default_rng(seed)
                n = int(rng.integers(2, 101))
                m = rng.standard_normal((n, n))
                m = (m + m.T) / 2.0
                w = rng.standard_normal(n)
                exact = m @ w
                emulated = ar.matvec_dense(ar.round(m), w)
                norm_m = np.linalg.norm(m, 2)
                bound = (
                    2.0 * n**1.5 * norm_m * np.linalg.norm(w) * cfg.epsilon
                )
                # storage rounding of A itself costs one extra eps factor
                bound += norm_m * np.linalg.norm(w) * cfg.epsilon * n
                assert np.linalg.norm(emulated - exact) <= bound


class TestStorageKernels:
    """The per-kind emulated matvecs agree with the dense kernel: on the
    rounded matrix, or for Gram, twice on the rounded factor."""

    def operators(self):
        a, rng = ragged_csr(20)
        diag = SymmetricOperator.from_diagonal(rng.standard_normal(40) * 3.0)
        return (a, diag), rng

    @pytest.mark.parametrize("bits", BITS)
    def test_equal_to_rounded_dense_kernel(self, bits):
        ar = EmulatedArithmetic(PrecisionConfig(bits))
        (csr, diag), rng = self.operators()
        for a in (csr, diag):
            dense = ar.round(a.to_dense())
            matvec = ar.make_matvec(a)
            for _ in range(5):
                v = rng.standard_normal(a.n) * 10.0 ** rng.integers(-3, 4)
                # array_equal compares values, so a zero's sign is free
                assert np.array_equal(matvec(v), ar.matvec_dense(dense, v))

    @pytest.mark.parametrize("bits", BITS)
    def test_dense_kernel_matches_rounded_loop_in_any_layout(self, bits):
        rng = np.random.default_rng(bits)
        big = rng.standard_normal((40, 40)) * 10.0 ** rng.integers(-8, 9, (40, 40))
        v = rng.standard_normal(20)
        ar = EmulatedArithmetic(PrecisionConfig(bits))
        for m in (big[:20, :20], np.asfortranarray(big[:20, :20]), big[::2, 1::2]):
            expected = []
            for row in m.tolist():
                products = [_round_scalar(x * y, bits) for x, y in zip(row, v.tolist())]
                acc = products[0]
                for p in products[1:]:
                    acc = _round_scalar(acc + p, bits)
                expected.append(acc)
            assert ar.matvec_dense(m, v).tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("bits", BITS)
    def test_dense_and_gram_kernels_equal_rounded_dense_kernel(self, bits):
        ar = EmulatedArithmetic(PrecisionConfig(bits))
        rng = np.random.default_rng(bits)
        m = rng.standard_normal((30, 30))
        dense = SymmetricOperator.from_dense(m + m.T)
        gram = SymmetricOperator.gram(rng.standard_normal((45, 30)))
        rounded = ar.round(dense.to_dense())
        v = rng.standard_normal(dense.n)
        assert ar.make_matvec(dense)(v).tobytes() == ar.matvec_dense(rounded, v).tobytes()
        # the Gram form is two products on the rounded factor, never B^T B
        factor = ar.round(gram.data)
        v = rng.standard_normal(gram.n)
        expected = ar.matvec_dense(factor.T, ar.matvec_dense(factor, v))
        assert ar.make_matvec(gram)(v).tobytes() == expected.tobytes()

    def test_full_width_kernels_equal_exact_matvec(self):
        ar = EmulatedArithmetic(PrecisionConfig(52))
        (csr, diag), rng = self.operators()
        for a in (csr, diag):
            v = rng.standard_normal(a.n)
            assert np.array_equal(ar.make_matvec(a)(v), a.matvec(v))

    def test_sparse_and_diagonal_never_densified(self, monkeypatch):
        (csr, diag), rng = self.operators()
        spd = diagonally_dominant(csr)
        gram = SymmetricOperator.gram(
            sp.random(60, 40, density=0.1, random_state=20, format="csr"))
        monkeypatch.setattr(SymmetricOperator, "to_dense", refuse_to_densify)
        ar = EmulatedArithmetic(PrecisionConfig(16))
        for a in (csr, diag, spd, gram):
            ar.make_matvec(a)(rng.standard_normal(a.n))
            _, run = lanczos_emulated(a, rng.standard_normal(a.n), 8, PrecisionConfig(16))
            paige_report(run, a)
        cg_emulated(spd, rng.standard_normal(spd.n), 8, PrecisionConfig(16))

    def test_full_width_lanczos_on_csr_equals_exact_run(self):
        a, rng = ragged_csr(21)
        x = rng.standard_normal(a.n)
        exact = lanczos_decompose(a, x, 20, breakdown_tol=0.0)
        emulated, _ = lanczos_emulated(a, x, 20, PrecisionConfig(52))
        for field in ("q_basis", "alphas", "betas", "beta_next", "q_next",
                      "steps_taken"):
            assert np.array_equal(getattr(emulated, field),
                                  getattr(exact, field)), field

    def test_full_width_csr_row_of_negative_zeros_sums_to_positive_zero(self):
        # against x[0] = 0, row 0's one product is -1 * 0.0 = -0.0; scipy's
        # CSR product sums it from +0.0, and so must the kernel
        a = SymmetricOperator.from_sparse(
            np.array([[-1.0, 0.0, 0.0], [0.0, 2.0, 1.0], [0.0, 1.0, 3.0]]))
        x = np.array([0.0, 1.0, 1.0])
        exact = lanczos_decompose(a, x, 2, breakdown_tol=0.0)
        emulated, _ = lanczos_emulated(a, x, 2, PrecisionConfig(52))
        assert not np.signbit(exact.q_basis[0, 1])
        for field in ("q_basis", "q_next"):
            assert getattr(emulated, field).tobytes() == getattr(exact, field).tobytes()

    @pytest.mark.parametrize("shape", ["dense", "sparse", "row", "column"])
    def test_full_width_gram_equals_exact_run(self, shape):
        rng = np.random.default_rng(24)
        factor = {
            "dense": lambda: rng.standard_normal((300, 150)),
            "sparse": lambda: sp.random(300, 150, density=0.05, random_state=24,
                                        format="csr"),
            "row": lambda: rng.standard_normal((1, 5)),
            "column": lambda: rng.standard_normal((7, 1)),
        }[shape]()
        a = SymmetricOperator.gram(factor)
        x = rng.standard_normal(a.n)
        k = min(a.n, 20)
        exact = lanczos_decompose(a, x, k, breakdown_tol=0.0)
        emulated, _ = lanczos_emulated(a, x, k, PrecisionConfig(52))
        for field in ("q_basis", "alphas", "betas", "beta_next", "q_next",
                      "steps_taken"):
            assert np.array_equal(getattr(emulated, field),
                                  getattr(exact, field)), field

    def test_full_width_cg_on_csr_equals_exact_matvec_run(self, monkeypatch):
        # at 52 bits every rounding is the identity, so the CSR kernel must
        # reproduce the recurrence driven by the exact CSR product
        csr, rng = ragged_csr(22)
        a = diagonally_dominant(csr)
        b = rng.standard_normal(a.n)
        cfg = PrecisionConfig(52)
        kernel = cg_emulated(a, b, 15, cfg)
        monkeypatch.setattr(EmulatedArithmetic, "make_matvec",
                            lambda self, op: op.matvec)
        exact = cg_emulated(a, b, 15, cfg)
        assert kernel.iterations == exact.iterations
        for field in ("iterates", "residual_norms", "alphas", "betas"):
            assert np.array_equal(getattr(kernel, field),
                                  getattr(exact, field)), field


class TestEmulatedReductions:
    """Emulated dot, norm and dense matvec against a scalar loop of ``round_to``.

    :meth:`rows` holds signed zeros, exact ties (``bits + 2`` significant
    bits, the last one set) in products and partial sums, and subnormal
    partial sums.  With ``huge`` it also holds entries near
    ``2^(1024 - (52 - bits))``, past ``2^(1023 - (52 - bits))``, whose
    split overflows, so the kernels must rerun the frexp loop.
    """

    SPLIT_WIDTHS = (4, 8, 16, 23, 24, 32, 52)

    @staticmethod
    def reference_sum(terms, cfg):
        acc = terms[0]
        for t in terms[1:]:
            acc = round_to(acc + t, cfg)
        return acc

    def reference_dot(self, u, v, cfg):
        return self.reference_sum([round_to(x * y, cfg) for x, y in zip(u, v)], cfg)

    @pytest.mark.parametrize("bits", BITS + (5, 11))
    def test_dot_and_norm_match_scalar_loop(self, bits):
        cfg = PrecisionConfig(bits)
        ar = EmulatedArithmetic(cfg)
        rng = np.random.default_rng(bits)
        for n in (1, 2, 7, 64):
            u = rng.standard_normal(n) * 10.0 ** rng.integers(-4, 5, n)
            v = rng.standard_normal(n)
            products = [round_to(float(a) * float(b), cfg) for a, b in zip(u, v)]
            assert ar.dot(u, v) == self.reference_sum(products, cfg)
            squares = [round_to(float(a) * float(a), cfg) for a in u]
            expected = round_to(math.sqrt(self.reference_sum(squares, cfg)), cfg)
            assert ar.norm(u) == expected


    @pytest.mark.parametrize("bits", BITS)
    def test_signed_zeros_and_non_finite_sums_match_scalar_loop(self, bits):
        cfg = PrecisionConfig(bits)
        ar = EmulatedArithmetic(cfg)
        cases = ([-0.0, -0.0, -0.0], [-0.0, 0.0], [0.0, -0.0], [1.0, -1.0, -0.0],
                 [-0.0], [1e308, 1e308, -1.0], [1.0, np.inf, 2.0],
                 [np.inf, -np.inf, 1.0], [1.0, np.nan])
        for terms in cases:
            u = np.array(terms)
            expected = self.reference_sum([round_to(float(t), cfg) for t in u], cfg)
            # repr tells -0.0 from 0.0 and names nan
            assert repr(ar.dot(u, np.ones_like(u))) == repr(expected), terms

    @staticmethod
    def rows(bits, huge):
        tie = 2.0 ** -(bits + 1)
        sub = 2.0**-1074
        rng = np.random.default_rng(bits)
        rows = [
            [-0.0, -0.0, -0.0, -0.0],
            [0.0, -0.0, -0.0, 0.0],
            [1.0, tie, 3.0 * tie, -tie],
            [1.0 + tie, 1.0 + 3.0 * tie, -(1.0 + tie), 2.0 + 4.0 * tie],
            list(rng.integers(1, 2**52, 4) * sub),
            [2.0**-1022 * (1.0 + tie), -(2.0**-1022), 5.0 * sub, -3.0 * sub],
        ]
        if huge:
            # c = x (2^s + 1) overflows once |x| reaches about 2^(1024 - s)
            big = 1.25 * 2.0 ** min(1023, 1024 - (52 - bits))
            rows += [[big, big, -1.0, 3.0], [1.0, -big, -big, big]]
        return np.array(rows)

    @pytest.mark.parametrize("huge", [False, True])
    @pytest.mark.parametrize("bits", SPLIT_WIDTHS)
    def test_matvec_dense_equals_round_to_loop(self, bits, huge, monkeypatch):
        cfg = PrecisionConfig(bits)
        mat = self.rows(bits, huge)
        v = np.array([1.0, -1.0, 0.5, 1.0])
        expected = [self.reference_dot(row, v.tolist(), cfg) for row in mat.tolist()]
        ar = EmulatedArithmetic(cfg)
        fallback = spy(monkeypatch, EmulatedArithmetic, "_rnd")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = ar.matvec_dense(mat, v)
        assert bool(fallback) == huge
        assert [repr(x) for x in out.tolist()] == [repr(x) for x in expected]

    @pytest.mark.parametrize("huge", [False, True])
    @pytest.mark.parametrize("bits", SPLIT_WIDTHS)
    def test_dot_and_norm_equal_round_to_loop(self, bits, huge, monkeypatch):
        cfg = PrecisionConfig(bits)
        rows = self.rows(bits, huge)
        # squares as large as the entries ``dot`` is given, themselves finite
        roots = rows.copy()
        if huge:
            roots[-2:] = np.sqrt(np.abs(rows[-2:])) * np.sign(rows[-2:])
        v = np.array([1.0, -1.0, 0.5, 1.0])
        dots = [self.reference_dot(u, v.tolist(), cfg) for u in rows.tolist()]
        norms = [round_to(math.sqrt(self.reference_dot(u, u, cfg)), cfg)
                 for u in roots.tolist()]
        ar = EmulatedArithmetic(cfg)
        scalar_calls = spy(monkeypatch, precision, "_round_scalar")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got_dots = [ar.dot(u, v) for u in rows]
            assert bool(scalar_calls) == huge
            scalar_calls.clear()
            got_norms = [ar.norm(u) for u in roots]
        # each norm rounds its square root once; more calls are the fallback
        assert (len(scalar_calls) > len(roots)) == huge
        assert [repr(x) for x in got_dots] == [repr(x) for x in dots]
        assert [repr(x) for x in got_norms] == [repr(x) for x in norms]


class TestEmulatedLanczos:
    def test_full_width_matches_double_bit_for_bit(self):
        a, rng = random_unit_symmetric(5, 40)
        x = rng.standard_normal(40)
        dec_double = lanczos_decompose(a, x, 18, breakdown_tol=0.0)
        dec_emulated, _ = lanczos_emulated(a, x, 18, PrecisionConfig(52))
        assert np.array_equal(dec_double.q_basis, dec_emulated.q_basis)
        assert np.array_equal(dec_double.alphas, dec_emulated.alphas)
        assert np.array_equal(dec_double.betas, dec_emulated.betas)
        assert dec_double.beta_next == dec_emulated.beta_next

    def test_sixteen_bit_paige_quantities(self):
        a, rng = random_unit_symmetric(6, 60)
        x = rng.standard_normal(60)
        cfg = PrecisionConfig(16)
        _, diag = lanczos_emulated(a, x, 25, cfg)
        n, k = 60, diag.steps_taken
        assert diag.residual_norm <= k * (2 * n**1.5 + 7) * cfg.epsilon
        assert diag.max_qnorm_drift <= (n + 4) * cfg.epsilon

    def test_monotone_defect_degradation(self):
        a, rng = random_unit_symmetric(7, 60)
        x = rng.standard_normal(60)
        defects = []
        for bits in (52, 32, 24, 16, 12):
            _, diag = lanczos_emulated(a, x, 25, PrecisionConfig(bits))
            defects.append(diag.orthogonality_defect)
        for earlier, later in zip(defects, defects[1:]):
            assert later >= earlier / 3.0

    def test_diagnostics_carry_ritz_range(self):
        a = SymmetricOperator.from_diagonal(np.linspace(0.5, 2.0, 30))
        rng = np.random.default_rng(8)
        _, diag = lanczos_emulated(a, rng.standard_normal(30), 10,
                                   PrecisionConfig(20))
        assert 0.4 <= diag.ritz_min <= diag.ritz_max <= 2.1


class TestPaigeReport:
    def test_all_inequalities_hold_at_reduced_precision(self):
        for bits in (12, 16, 52):
            a, rng = random_unit_symmetric(9, 50)
            x = rng.standard_normal(50)
            _, diag = lanczos_emulated(a, x, 20, PrecisionConfig(bits))
            report = paige_report(diag, a)
            assert report.all_passed, report.as_dict()

    def test_full_precision_ratios_are_small(self):
        a, rng = random_unit_symmetric(10, 50)
        x = rng.standard_normal(50)
        _, diag = lanczos_emulated(a, x, 20, PrecisionConfig(52))
        report = paige_report(diag, a)
        assert report["residual_norm"].ratio <= 1e-3
        # the q-norm bound is only (n+4) eps while the drift cannot fall
        # below ~1 ulp, so its ratio floor is ~1/(n+4), not 1e-3
        assert report["qnorm_drift"].ratio <= 0.1

    def test_flags_non_normalizing_variant(self):
        # a buggy recurrence that skips normalization must trip the
        # q-norm inequality
        a, rng = random_unit_symmetric(11, 30)
        x = rng.standard_normal(30)
        cfg = PrecisionConfig(16)

        q_prev = np.zeros(30)
        q = x / np.linalg.norm(x)
        beta = 0.0
        columns, alphas, betas = [], [], []
        for _ in range(6):
            columns.append(q)
            w = a.matvec(q) - beta * q_prev
            alpha = float(w @ q)
            w = w - alpha * q
            alphas.append(alpha)
            beta_next = float(np.linalg.norm(w))
            q_prev, q = q, w * 1.5  # bug: scales instead of normalizing
            beta = beta_next
            betas.append(beta_next)
        buggy = LanczosDecomposition(
            q_basis=np.column_stack(columns),
            alphas=np.asarray(alphas),
            betas=np.asarray(betas[:-1]),
            beta_next=betas[-1],
            q_next=q / np.linalg.norm(q),
            steps_taken=6,
            requested_k=6,
            breakdown=False,
            x_norm=float(np.linalg.norm(x)),
        )
        report = paige_report(diagnose(buggy, a, cfg), a)
        assert not report.all_passed
        assert not report["qnorm_drift"].passed


def laplacian_2d(m):
    """The 5-point Dirichlet Laplacian on an m x m grid, CSR, scaled by 1/8."""
    t = sp.diags([-np.ones(m - 1), 2.0 * np.ones(m), -np.ones(m - 1)], [-1, 0, 1])
    grid = sp.kron(t, sp.identity(m)) + sp.kron(sp.identity(m), t)
    return SymmetricOperator.from_sparse(grid.tocsr() * 0.125)


def laplacian_2d_spectrum(m):
    """Closed form (DST-I): eigenvalues of :func:`laplacian_2d`, ascending."""
    d = 2.0 - 2.0 * np.cos(np.arange(1, m + 1) * np.pi / (m + 1))
    return np.sort((d[:, None] + d[None, :]).ravel()) * 0.125


def random_csr_spd(seed, n=300):
    m = sp.random(n, n, density=0.03, random_state=seed)
    return SymmetricOperator.from_sparse((m + m.T + 8.0 * sp.identity(n)).tocsr())


class TestSpectralExtremes:
    """``paige_report``'s extremes per storage kind against dense ``eigvalsh``."""

    @staticmethod
    def dense_verdict(diag, spectrum):
        """Paige's three verdicts computed from the full dense spectrum."""
        eps, n, k = diag.config.epsilon, diag.n, diag.steps_taken
        norm_a = float(np.max(np.abs(spectrum)))
        excursion = max(spectrum[0] - diag.ritz_min, diag.ritz_max - spectrum[-1])
        return (
            diag.residual_norm <= k * (2.0 * n**1.5 + 7.0) * norm_a * eps,
            diag.max_qnorm_drift <= (n + 4.0) * eps,
            excursion <= k**2.5 * norm_a * (68.0 + 17.0 * n**1.5) * eps,
        )

    def sparse_cases(self):
        factor = sp.random(200, 120, density=0.05, random_state=5, format="csr")
        return (laplacian_2d(40), random_csr_spd(4), SymmetricOperator.gram(factor))

    def test_sparse_extremes_lie_inside_and_close(self):
        for a in self.sparse_cases():
            lo, hi = _spectral_extremes(a)
            spectrum = np.linalg.eigvalsh(a.to_dense())
            slack = 1e-12 * np.max(np.abs(spectrum))
            assert spectrum[0] <= lo <= spectrum[0] + slack, a
            assert spectrum[-1] - slack <= hi <= spectrum[-1], a

    def test_laplacian_extremes_against_closed_form(self):
        # the top eigenvector is orthogonal to ones: a start of ones misses it
        exact = laplacian_2d_spectrum(40)
        lo, hi = _spectral_extremes(laplacian_2d(40))
        assert exact[0] <= lo <= exact[0] + 1e-12 * exact[-1]
        assert exact[-1] * (1.0 - 1e-12) <= hi <= exact[-1]

    @pytest.mark.parametrize("n", [1, 2])
    def test_smallest_csr_operators(self, n):
        a = SymmetricOperator.from_sparse(np.array([[2.0, -1.0], [-1.0, 3.0]])[:n, :n])
        lo, hi = _spectral_extremes(a)
        spectrum = np.linalg.eigvalsh(a.to_dense())
        # n = 1: e1 is the eigenvector; n = 2 runs ARPACK
        assert spectrum[0] <= lo <= spectrum[0] + 1e-12 * spectrum[-1]
        assert spectrum[-1] * (1.0 - 1e-12) <= hi <= spectrum[-1]
        _, run = lanczos_emulated(a, np.ones(n), 2, PrecisionConfig(16))
        assert paige_report(run, a).all_passed

    def test_zero_csr_operator(self):
        zero = SymmetricOperator.from_sparse(sp.csr_matrix((4, 4)))
        assert _spectral_extremes(zero) == (0.0, 0.0)

    @pytest.mark.parametrize("kappa", [16.0, 64.0, 256.0])
    def test_diagonal_extremes_equal_eigvalsh_bit_for_bit(self, kappa):
        a = hard_spectrum(kappa, 1e-4).operator()
        spectrum = np.linalg.eigvalsh(a.to_dense())
        assert _spectral_extremes(a) == (spectrum[0], spectrum[-1])

    def test_dense_and_dense_gram_reports_unchanged(self):
        rng = np.random.default_rng(13)
        dense, _ = random_unit_symmetric(13, 40)
        gram = SymmetricOperator.gram(rng.standard_normal((60, 40)))
        for a in (dense, gram):
            _, run = lanczos_emulated(a, rng.standard_normal(40), 12, PrecisionConfig(16))
            spectrum = np.linalg.eigvalsh(a.to_dense())
            norm_a = float(np.max(np.abs(spectrum)))
            eps, n, k = run.config.epsilon, run.n, run.steps_taken
            report = paige_report(run, a)
            assert report["residual_norm"].bound == k * (2.0 * n**1.5 + 7.0) * norm_a * eps
            assert report["ritz_containment"].measured == max(
                float(spectrum[0] - run.ritz_min), float(run.ritz_max - spectrum[-1]))

    @pytest.mark.parametrize("bits", [8, 12, 16, 24, 52])
    def test_verdicts_equal_dense_spectrum_verdicts(self, bits):
        rng = np.random.default_rng(bits)
        for a in self.sparse_cases():
            x = rng.standard_normal(a.n)
            _, run = lanczos_emulated(a, x, 20, PrecisionConfig(bits))
            report = paige_report(run, a)
            verdict = self.dense_verdict(run, np.linalg.eigvalsh(a.to_dense()))
            assert tuple(c.passed for c in report.checks) == verdict, report.as_dict()

    def test_arpack_failure_is_a_solver_failure(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(precision, "eigsh", no_convergence)
        with pytest.raises(SolverFailureError):
            _spectral_extremes(laplacian_2d(5))

    def test_laplacian_4900_never_densified(self, monkeypatch):
        a = laplacian_2d(70)
        monkeypatch.setattr(SymmetricOperator, "to_dense", refuse_to_densify)
        rng = np.random.default_rng(14)
        _, run = lanczos_emulated(a, rng.standard_normal(a.n), 15, PrecisionConfig(16))
        report = paige_report(run, a)
        assert report.all_passed, report.as_dict()
        exact = laplacian_2d_spectrum(70)
        assert report["residual_norm"].bound <= (
            15 * (2.0 * a.n**1.5 + 7.0) * exact[-1] * 2.0**-16)


class TestEmulatedCg:
    def test_reduces_residual_at_reduced_precision(self):
        values = np.geomspace(0.1, 1.0, 12)
        a = SymmetricOperator.from_diagonal(values)
        rng = np.random.default_rng(12)
        b = rng.standard_normal(12)
        trace = cg_emulated(a, b, 8, PrecisionConfig(16))
        assert trace.residual_norms[-1] <= 0.1 * trace.residual_norms[0]

    def test_full_width_matches_double_cg(self):
        from funmlab import cg_solve

        values = np.geomspace(0.2, 1.0, 10)
        a = SymmetricOperator.from_diagonal(values)
        rng = np.random.default_rng(13)
        b = rng.standard_normal(10)
        emulated = cg_emulated(a, b, 6, PrecisionConfig(52))
        plain = cg_solve(a, b, 6)
        np.testing.assert_allclose(
            emulated.solution, plain.solution, rtol=1e-12
        )
