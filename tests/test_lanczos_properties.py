"""Property search over the bit-identity invariants of the Lanczos run.

Hypothesis draws an operator (dense, CSR, diagonal, or the Gram form of a
dense or CSR factor), its size, a C, Fortran or strided layout for the
arrays it is built from, and k up to past n, so that early breakdown
occurs.  For each draw, the exact run with ``breakdown_tol=0.0``

* equals a test-side reference recurrence, written out left to right
  from the operator's stored arrays, byte for byte;
* equals the 52-bit emulated run field for field, layout included;
* has prefixes equal to the shorter runs from the same start.

The search is derandomized, so tier-1 runs the same cases every time.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from funmlab import PrecisionConfig, SymmetricOperator, lanczos_decompose, lanczos_emulated

KINDS = ("dense", "sparse", "diagonal", "gram", "sparse-gram")


def laid_out(mat, layout):
    """``mat`` with the same values, stored C-ordered, Fortran-ordered or strided."""
    if layout == "F":
        return np.asfortranarray(mat)
    if layout == "strided":
        wide = np.zeros((mat.shape[0], 2 * mat.shape[1]))
        wide[:, ::2] = mat
        return wide[:, ::2]
    return np.ascontiguousarray(mat)


def entries(rng, shape, sparse):
    """Values spanning 2^-40 .. 2^40; 40 % of them ``+-0.0`` when ``sparse``."""
    vals = rng.standard_normal(shape) * 2.0 ** rng.integers(-40, 41, shape)
    if sparse:
        vals[rng.random(shape) < 0.4] *= 0.0
    return vals


def stored_csr(m, stored):
    """CSR holding ``m`` where ``stored`` is set, zeros of either sign included."""
    rows, cols = np.nonzero(stored)
    indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(stored, axis=1))])
    return sp.csr_matrix((m[rows, cols], cols, indptr), shape=m.shape)


def build(kind, n, rows, rng, layout, sparse):
    """An operator of ``kind``; a Gram factor has ``rows`` rows.

    When ``sparse``, a matrix or factor also gets a first column of
    ``-0.0`` (a symmetric matrix a first row too), so that against a start
    vector with ``x[0] = 0`` and no negative entry, entry 0 of ``A q_1``
    sums only ``-0.0`` terms.  CSR storage keeps its stored zeros, that
    column included.
    """
    if kind == "diagonal":
        return SymmetricOperator.from_diagonal(entries(rng, n, sparse))
    square = kind in ("dense", "sparse")
    shape = (n, n) if square else (rows, n)
    m = entries(rng, shape, sparse)
    if kind in ("sparse", "sparse-gram"):
        stored = rng.random(shape) < 0.3
        if square:
            upper = np.triu(np.ones(shape, dtype=bool))
            m, stored = np.where(upper, m, m.T), np.where(upper, stored, stored.T)
        if sparse:
            m[:, 0] = -0.0
            stored[:, 0] = True
            if square:
                m[0, :] = -0.0
                stored[0, :] = True
        csr = stored_csr(m, stored)
        return SymmetricOperator.from_sparse(csr) if square else SymmetricOperator.gram(csr)
    if kind == "dense":
        m = np.triu(m) + np.triu(m, 1).T
        if sparse:
            m[0, :] = m[:, 0] = -0.0
        return SymmetricOperator.from_dense(laid_out(m, layout))
    if sparse:
        m[:, 0] = -0.0
    return SymmetricOperator.gram(laid_out(m, layout))


def exact_breakdown(a, n, rng):
    """A diagonal and start vector on which rounding-free steps break down.

    ``x`` is a power of two on 4^m coordinates and zero elsewhere; the
    diagonal there is ``2^p`` on one half and ``3 2^p`` on the other.
    Every step is then exact, so beta_3 is exactly zero (for m = 0,
    beta_2 is).  The other diagonal entries keep their drawn values.
    """
    m = int(rng.integers(0, 3 if n >= 16 else 2 if n >= 4 else 1))
    support = rng.permutation(n)[:4**m]
    diag = a.data.copy()
    values = np.repeat([1.0, 3.0], 4**m // 2) if m else np.ones(1)
    diag[support] = 2.0 ** int(rng.integers(-20, 21)) * values
    x = np.zeros(n)
    x[support] = 2.0 ** int(rng.integers(-20, 21))
    return SymmetricOperator.from_diagonal(diag), x


def left_to_right(terms):
    """Sum the columns of ``terms`` row by row, starting from its first row."""
    acc = terms[0].copy()
    for row in terms[1:]:
        acc = acc + row
    return acc


def csr_rows(csr, v):
    """``csr @ v`` with every row summed in stored order, starting from +0.0."""
    out = np.zeros(csr.shape[0])
    counts = np.diff(csr.indptr)
    for p in range(counts.max(initial=0)):
        rows = np.flatnonzero(counts > p)
        at = csr.indptr[rows] + p
        out[rows] = out[rows] + csr.data[at] * v[csr.indices[at]]
    return out


def csr_transposed(csr, v):
    """``csr.T @ v`` adding row j's terms for j ascending, starting from +0.0."""
    out = np.zeros(csr.shape[1])
    for j in range(csr.shape[0]):
        lo, hi = csr.indptr[j], csr.indptr[j + 1]
        cols = csr.indices[lo:hi]
        out[cols] = out[cols] + csr.data[lo:hi] * v[j]
    return out


def reference_matvec(a):
    """``A v`` from the operator's stored arrays, each entry summed in index order."""
    data = a.data
    if a.kind == "diagonal":
        return lambda v: data * v
    if a.kind == "dense":
        return lambda v: left_to_right(data * v[:, None])
    if a.kind == "sparse":
        return lambda v: csr_rows(data, v)
    if sp.issparse(data):
        return lambda v: csr_transposed(data, csr_rows(data, v))
    return lambda v: left_to_right(data * left_to_right(data.T * v[:, None])[:, None])


def dot(u, v):
    acc = u[0] * v[0]
    for a, b in zip(u[1:].tolist(), v[1:].tolist()):
        acc += a * b
    return float(acc)


def reference_lanczos(a, x, k):
    """The recurrence with ``breakdown_tol = 0``, written out independently."""
    matvec = reference_matvec(a)
    x_norm = math.sqrt(dot(x, x))
    q, q_prev, beta = x / x_norm, np.zeros(a.n), 0.0
    basis, alphas, betas = [], [], []
    for i in range(1, k + 1):
        basis.append(q)
        w = matvec(q) - beta * q_prev
        alpha = dot(w, q)
        w = w - alpha * q
        beta_next = math.sqrt(dot(w, w))
        alphas.append(alpha)
        if beta_next == 0.0 or i == k:
            break
        betas.append(beta_next)
        q_prev, q, beta = q, w / beta_next, beta_next
    broke = beta_next == 0.0
    return SimpleNamespace(q_basis=np.column_stack(basis), alphas=alphas, betas=betas,
                           beta_next=beta_next,
                           q_next=np.zeros(a.n) if broke else w / beta_next,
                           steps_taken=len(alphas), breakdown=broke and len(alphas) < k,
                           x_norm=x_norm)


def same(got, want):
    """Same shape and bytes; 1-D and 2-D fields also the same memory layout."""
    if isinstance(want, np.ndarray):
        return (got.shape == want.shape and got.tobytes() == want.tobytes()
                and got.flags.c_contiguous == want.flags.c_contiguous
                and got.flags.f_contiguous == want.flags.f_contiguous)
    return type(got) is type(want) and got == want


FIELDS = ("q_basis", "alphas", "betas", "beta_next", "q_next", "steps_taken",
          "requested_k", "breakdown", "x_norm")


# one row, or one column, is where a dense product sums a single column
SIDE = st.one_of(st.just(1), st.integers(1, 60))


@st.composite
def cases(draw, kind):
    n = draw(SIDE if kind == "gram" else st.integers(1, 60))
    k = draw(st.integers(1, 70))
    rows = draw(SIDE)
    layout = draw(st.sampled_from(("C", "F", "strided")))
    sparse = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = build(kind, n, rows, rng, layout, sparse)
    x = entries(rng, n, sparse)
    if sparse and draw(st.booleans()):
        x = np.abs(x)
        x[0] = 0.0
    if not x.any():
        x[-1] = 1.0
    if kind == "diagonal" and draw(st.booleans()):
        a, x = exact_breakdown(a, n, rng)
    j = draw(st.integers(1, k))
    return a, x, k, j


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=25, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_exact_run_equals_reference_emulation_and_prefixes(kind, data):
    a, x, k, j = data.draw(cases(kind))
    dec = lanczos_decompose(a, x, k, breakdown_tol=0.0)

    ref = reference_lanczos(a, x, k)
    assert dec.steps_taken == ref.steps_taken and dec.breakdown == ref.breakdown
    for name in ("q_basis", "alphas", "betas", "q_next"):
        want = np.asarray(getattr(ref, name), dtype=float)
        assert getattr(dec, name).tobytes() == want.tobytes(), name
    assert dec.beta_next == ref.beta_next and dec.x_norm == ref.x_norm

    emulated, _ = lanczos_emulated(a, x, k, PrecisionConfig(52))
    for name in FIELDS:
        assert same(getattr(emulated, name), getattr(dec, name)), name

    short = lanczos_decompose(a, x, j, breakdown_tol=0.0)
    part = dec.prefix(j)
    for name in FIELDS:
        assert same(getattr(part, name), getattr(short, name)), name
