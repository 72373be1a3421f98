"""The 23-bit emulation against IEEE single precision, a hardware oracle.

Twenty-three stored mantissa bits are float32's significand, so a 23-bit
emulated run must equal the same recurrence run natively in float32, bit
for bit: an operation on two floats rounded to double and then to 24
significant bits gives the correctly rounded float32 result, since
53 >= 2 * 24 + 2 (S. Figueroa, "When is double rounding innocuous?",
SIGNUM Newsletter 30(3), 1995).  The emulation
keeps the double exponent range and float32 does not, so every value the
float32 run stores is checked to be a normal float32 (or zero); a case
that leaves that range fails loudly instead of comparing different
arithmetics.  Nothing here calls the emulation's rounding code.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from funmlab import PrecisionConfig, SymmetricOperator, cg_emulated, lanczos_emulated
from funmlab.lanczos import lanczos_core

F32 = np.float32
TINY = np.finfo(F32).tiny


def stored(x):
    """``x`` as float32, after checking it is finite and normal or zero."""
    x = np.asarray(x)
    assert x.dtype == F32, x.dtype
    assert np.all(np.isfinite(x)), "float32 overflow"
    assert np.all((x == 0) | (np.abs(x) >= TINY)), "float32 subnormal"
    return x


def f32(v):
    """Cast to float32; the values it is given are float32 already or zeros."""
    out = np.asarray(v, dtype=F32)
    assert np.array_equal(out, v)
    return out


def lockstep(mat, v):
    """``mat @ v`` in float32, every row summed in ascending column order."""
    products = stored(mat.T * v[:, None])
    acc = products[0].copy()
    for row in products[1:]:
        acc = stored(acc + row)
    return acc


def sequential_csr(csr, v):
    """CSR ``csr @ v`` as a scalar float32 loop, rows in ascending column order."""
    out = np.zeros(csr.shape[0], dtype=F32)
    for i in range(csr.shape[0]):
        lo, hi = csr.indptr[i], csr.indptr[i + 1]
        if lo == hi:
            continue
        acc = csr.data[lo] * v[csr.indices[lo]]
        for p in range(lo + 1, hi):
            acc = acc + csr.data[p] * v[csr.indices[p]]
        out[i] = acc
    return out


class Float32Arithmetic:
    """The arithmetic context of :func:`lanczos_core`, in IEEE single precision."""

    def scale(self, c, v):
        return stored(F32(c) * f32(v))

    def sub(self, u, v):
        return stored(f32(u) - f32(v))

    def add(self, u, v):
        return stored(f32(u) + f32(v))

    def div(self, v, c):
        return stored(f32(v) / F32(c))

    def dot(self, u, v):
        # cumsum adds in index order, one float32 rounding per partial sum
        return stored(np.cumsum(stored(f32(u) * f32(v))))[-1]

    def norm(self, v):
        return stored(np.sqrt(self.dot(v, v)))

    def make_matvec(self, a: SymmetricOperator):
        if a.kind == "diagonal":
            diag = stored(a.data.astype(F32))
            return lambda v: stored(diag * f32(v))
        if a.kind == "sparse":
            csr = a.data.astype(F32)
            stored(csr.data)
            return lambda v: stored(csr @ f32(v))
        mat = stored(a.data.astype(F32))
        if a.kind == "dense":
            return lambda v: lockstep(mat, f32(v))
        return lambda v: lockstep(mat.T, lockstep(mat, f32(v)))


def float32_lanczos(a, x, k):
    ops = Float32Arithmetic()
    return lanczos_core(ops.make_matvec(a), stored(x.astype(F32)), k, ops, 0.0,
                        a.norm_hint, 2.0**-23)


def float32_cg(a, b, k):
    """The recurrence of :func:`cg_emulated`, in float32."""
    ops = Float32Arithmetic()
    matvec = ops.make_matvec(a)
    y = np.zeros(a.n, dtype=F32)
    r = stored(b.astype(F32))
    p = r.copy()
    rr = ops.dot(r, r)
    iterates, residual_norms = [y], [math.sqrt(rr)]
    alphas, betas = [], []
    for _ in range(k):
        ap = matvec(p)
        denom = ops.dot(p, ap)
        assert denom > 0
        alpha = stored(rr / denom)
        y = ops.add(y, ops.scale(alpha, p))
        r = ops.sub(r, ops.scale(alpha, ap))
        rr_new = ops.dot(r, r)
        beta = stored(rr_new / rr) if rr > 0 else F32(0)
        alphas.append(alpha)
        iterates.append(y)
        residual_norms.append(math.sqrt(rr_new))
        if abs(beta) <= 2.0**-23:
            break
        betas.append(beta)
        p = ops.add(r, ops.scale(beta, p))
        rr = rr_new
    return iterates, residual_norms, alphas, betas


def same_bits(emulated, native):
    native = np.asarray(native, dtype=float)
    return np.asarray(emulated, dtype=float).tobytes() == native.tobytes()


def dense_symmetric(rng, n=60):
    m = rng.standard_normal((n, n))
    return SymmetricOperator.from_dense(m + m.T)


def dense_spd(rng, n=60):
    m = rng.standard_normal((n, n))
    return SymmetricOperator.from_dense(m @ m.T / n + np.eye(n), symmetrize=True)


def diagonal(rng, n=500):
    return SymmetricOperator.from_diagonal(rng.uniform(0.5, 4.0, n))


def laplacian_csr(m=20):
    """The 5-point Dirichlet Laplacian on an m x m grid, scaled by 1/8."""
    t = sp.diags([-np.ones(m - 1), 2.0 * np.ones(m), -np.ones(m - 1)], [-1, 0, 1])
    grid = sp.kron(t, sp.identity(m)) + sp.kron(sp.identity(m), t)
    return grid.tocsr() * 0.125


def laplacian(rng):
    return SymmetricOperator.from_sparse(laplacian_csr())


def dense_gram(rng):
    return SymmetricOperator.gram(rng.standard_normal((90, 50)))


@pytest.mark.parametrize("make", [dense_symmetric, diagonal, laplacian, dense_gram])
def test_lanczos_at_23_bits_equals_float32(make):
    rng = np.random.default_rng(23)
    a = make(rng)
    x = rng.standard_normal(a.n)
    emulated, _ = lanczos_emulated(a, x, 40, PrecisionConfig(23))
    native = float32_lanczos(a, x, 40)
    assert emulated.steps_taken == native.steps_taken == 40
    for field in ("q_basis", "alphas", "betas", "beta_next", "q_next", "x_norm"):
        assert same_bits(getattr(emulated, field), getattr(native, field)), field


@pytest.mark.parametrize("make", [diagonal, laplacian, dense_spd])
def test_cg_at_23_bits_equals_float32(make):
    rng = np.random.default_rng(24)
    a = make(rng)
    b = rng.standard_normal(a.n)
    emulated = cg_emulated(a, b, 30, PrecisionConfig(23))
    iterates, residual_norms, alphas, betas = float32_cg(a, b, 30)
    assert len(alphas) >= 10
    assert same_bits(emulated.iterates, iterates)
    assert same_bits(emulated.residual_norms, residual_norms)
    assert same_bits(emulated.alphas, alphas)
    assert same_bits(emulated.betas, betas)


def test_float32_csr_product_is_sequential():
    """scipy's float32 CSR product rounds each product and each partial sum."""
    rng = np.random.default_rng(25)
    ragged = sp.random(60, 60, density=0.2, random_state=25, format="csr")
    for csr in (laplacian_csr(), ragged):
        csr = csr.astype(F32)
        for _ in range(5):
            v = rng.standard_normal(csr.shape[1]).astype(F32)
            assert (csr @ v).tobytes() == sequential_csr(csr, v).tobytes()
