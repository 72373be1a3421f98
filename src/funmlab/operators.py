"""Symmetric linear operators, Matrix Market ingestion, and the dense oracle.

Every operator exposes its action only through ``matvec``.  Dense and
sparse products accumulate in ascending index order so results are
bit-reproducible for a given build; no parallel reductions are used.

A dense product is one ``np.einsum("ji,j->i", cols, v)`` over a
C-contiguous ``cols`` (dense matrices and Gram factors are stored so):
einsum keeps the larger-stride axis ``j`` outermost and its float64 loop
adds each rounded product ``cols[j, i] * v[j]`` into ``out[i]``, so every
entry is summed in ascending ``j`` with no temporary array.  Entries that
sum to zero are recomputed for their sign of zero, and one output column
is widened to two by a contiguous copy (see :func:`_ascending_sum`).  Bit
identity with a left-to-right loop needs an einsum loop that does not
fuse multiply-add; numpy's x86-64-v2 SIMD baseline has no FMA.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import (
    CapacityError,
    DomainError,
    MatrixMarketParseError,
    StructuralError,
    UnsupportedFormatError,
)
from .functions import evaluate_scalar

ORACLE_CAP = 2000


def check_vector(v, n=None, name="vector"):
    """Validate a 1-D real vector: finite entries, optional length check."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise StructuralError(f"{name} must be one-dimensional, got shape {v.shape}")
    if n is not None and v.shape[0] != n:
        raise StructuralError(f"{name} has length {v.shape[0]}, expected {n}")
    if not np.all(np.isfinite(v)):
        raise DomainError(f"{name} contains non-finite entries")
    return v


def _ascending_sum(cols, v):
    """``sum_j cols[j] * v[j]`` with every entry summed in ascending ``j``.

    ``cols`` must be C-contiguous, so that einsum runs ``j`` in its outer
    loop and adds the rounded products in turn.  einsum starts each sum
    from ``+0.0`` where a left-to-right loop starts from its first term;
    the two differ only on an entry whose terms are all ``-0.0``, so
    entries that sum to zero are recomputed by :func:`_reduce_ascending`.
    On one column, or a zero-stride broadcast of it, einsum sums the
    column as one contiguous vector in another order, so a single column
    is repeated into two.
    """
    width = cols.shape[1]
    if width == 1:
        cols = np.repeat(cols, 2, axis=1)
    out = np.einsum("ji,j->i", cols, v, optimize=False)[:width]
    zero = np.flatnonzero(out == 0.0)
    if zero.size:
        out[zero] = _reduce_ascending(cols[:, zero], v)
    return out


def _reduce_ascending(cols, v):
    """``sum_j cols[j] * v[j]`` as one numpy reduction started from ``-0.0``.

    The terms are built in C order, so ``add.reduce`` runs over the strided
    axis one row at a time and sums every entry in ascending ``j``; a
    single column is broadcast to two so that it is not reduced as one
    contiguous vector, pairwise.  ``-0.0`` adds nothing to any float and
    keeps the first term's sign of zero, as a left-to-right loop does.
    """
    terms = np.multiply(cols, v[:, None], order="C")
    width = terms.shape[1]
    if width == 1:
        terms = np.broadcast_to(terms, (terms.shape[0], 2))
    return np.add.reduce(terms, axis=0, initial=-0.0)[:width]


class SymmetricOperator:
    """A dimension-``n`` real symmetric linear map.

    Storage is one of: dense array, CSR sparse, diagonal vector, or the
    composed Gram form ``B^T B`` (positive semidefinite by construction).
    ``norm_hint`` is an optional upper bound on the spectral norm.
    """

    _DENSE, _SPARSE, _DIAGONAL, _GRAM = "dense", "sparse", "diagonal", "gram"

    def __init__(self, kind, data, norm_hint=None):
        self._kind = kind
        self._data = data
        if self.n == 0:
            raise StructuralError("operator dimension must be at least 1, got 0")
        if norm_hint is not None and norm_hint < 0:
            raise StructuralError("norm_hint must be nonnegative")
        self.norm_hint = norm_hint
        # a dense Gram factor's columns as C-contiguous rows, for ``B v``
        self._factor_cols = (
            np.ascontiguousarray(data.T)
            if kind == self._GRAM and not sp.issparse(data)
            else None
        )

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_dense(cls, mat, norm_hint=None, symmetrize=False):
        mat = np.asarray(mat, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise StructuralError(f"expected a square matrix, got shape {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise DomainError("matrix contains non-finite entries")
        if not np.array_equal(mat, mat.T):
            if not symmetrize:
                raise StructuralError(
                    "matrix is not exactly symmetric (pass symmetrize=True to fix)"
                )
            # (a+b)/2 == (b+a)/2 exactly, so the result is bitwise symmetric
            mat = 0.5 * (mat + mat.T)
        return cls(cls._DENSE, np.ascontiguousarray(mat), norm_hint)

    @classmethod
    def from_sparse(cls, mat, norm_hint=None, symmetrize=False):
        mat = sp.csr_matrix(mat, dtype=float)
        if mat.shape[0] != mat.shape[1]:
            raise StructuralError(f"expected a square matrix, got shape {mat.shape}")
        if (mat != mat.T).nnz != 0:
            if not symmetrize:
                raise StructuralError(
                    "sparse matrix is not exactly symmetric (pass symmetrize=True)"
                )
            mat = 0.5 * (mat + mat.T.tocsr())
        mat.sum_duplicates()
        mat.sort_indices()
        if not np.all(np.isfinite(mat.data)):
            raise DomainError("matrix contains non-finite entries")
        return cls(cls._SPARSE, mat, norm_hint)

    @classmethod
    def from_diagonal(cls, diag, norm_hint=None):
        op = cls(cls._DIAGONAL, check_vector(diag, name="diagonal"), norm_hint)
        if norm_hint is None:
            op.norm_hint = float(np.max(np.abs(op.data)))
        return op

    @classmethod
    def gram(cls, b, norm_hint=None):
        """Operator acting as ``B^T B`` for a rectangular ``B``."""
        if sp.issparse(b):
            b = sp.csr_matrix(b, dtype=float)
            b.sum_duplicates()
            b.sort_indices()
        else:
            b = np.asarray(b, dtype=float)
            if b.ndim != 2:
                raise StructuralError("gram factor must be two-dimensional")
            if not np.all(np.isfinite(b)):
                raise DomainError("gram factor contains non-finite entries")
            b = np.ascontiguousarray(b)
        return cls(cls._GRAM, b, norm_hint)

    # -- protocol ----------------------------------------------------------

    @property
    def n(self):
        # square storage, a diagonal vector or a Gram factor B with n columns
        return self._data.shape[-1]

    @property
    def kind(self):
        return self._kind

    @property
    def data(self):
        """Stored array for ``kind`` (dense, canonical CSR, diagonal vector
        or Gram factor ``B``); shared, not copied, so do not modify it."""
        return self._data

    def matvec(self, v):
        """Apply the operator; accumulation order is ascending index."""
        v = check_vector(v, self.n)
        if self._kind == self._DENSE:
            # exactly symmetric, so row j of the matrix is its column j
            return _ascending_sum(self._data, v)
        if self._kind == self._SPARSE:
            # canonical CSR products run row by row in ascending column order
            return self._data @ v
        if self._kind == self._DIAGONAL:
            return self._data * v
        b = self._data
        if sp.issparse(b):
            return b.T @ (b @ v)
        # the rows of B are the columns of B^T
        return _ascending_sum(b, _ascending_sum(self._factor_cols, v))

    def to_dense(self):
        """Materialize the operator as a dense symmetric array."""
        if self._kind == self._DENSE:
            return self._data.copy()
        if self._kind == self._SPARSE:
            return self._data.toarray()
        if self._kind == self._DIAGONAL:
            return np.diag(self._data)
        b = self._data
        if sp.issparse(b):
            b = b.toarray()
        return b.T @ b

    def __repr__(self):
        return f"SymmetricOperator(kind={self._kind!r}, n={self.n})"


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenpairs ``A = V diag(values) V^T`` with values ascending."""

    values: np.ndarray
    vectors: np.ndarray

    def reconstruct(self):
        return (self.vectors * self.values) @ self.vectors.T

    def apply(self, f, x):
        """``f(A) x = V f(values) V^T x``."""
        fvals = evaluate_scalar(f, self.values)
        return self.vectors @ (fvals * (self.vectors.T @ x))


def exact_matrix_function(a: SymmetricOperator, f, x, cap=ORACLE_CAP):
    """Ground-truth ``f(A) x`` through a full dense eigendecomposition.

    This is the oracle every Lanczos-path result is tested against, so it
    deliberately runs through LAPACK (``numpy.linalg.eigh``) rather than
    any code path shared with the iterative method.
    """
    if a.n > cap:
        raise CapacityError(f"oracle limited to n <= {cap}, got n = {a.n}")
    x = check_vector(x, a.n, name="x")
    return EigenDecomposition(*np.linalg.eigh(a.to_dense())).apply(f, x)


def spectral_range(a: SymmetricOperator, probe_iters=30, margin=0.01):
    """Estimate ``[lambda_min, lambda_max]`` with a short Lanczos probe.

    Runs ``probe_iters`` Lanczos steps from a start drawn with seed 0 and
    returns the extreme Ritz values widened by ``margin`` times a cheap
    upper bound on ``||T||`` on each side.
    """
    if probe_iters < 1:
        raise StructuralError("probe_iters must be at least 1")
    from .lanczos import lanczos_decompose  # deferred: lanczos imports operators

    from .tridiag import eig_tridiagonal

    rng = np.random.default_rng(0)
    x = rng.standard_normal(a.n)
    dec = lanczos_decompose(a, x, k=probe_iters)
    tri = dec.tridiagonal()
    ritz = eig_tridiagonal(tri).values
    pad = margin * tri.norm_bound()
    return float(ritz[0] - pad), float(ritz[-1] + pad)


# -- Matrix Market ingestion ------------------------------------------------

_MM_HEADER_PREFIX = "%%matrixmarket"


def load_matrix_market(path) -> SymmetricOperator:
    """Read a real symmetric matrix from a Matrix Market file.

    Supports ``coordinate`` and ``array`` formats with ``real`` or
    ``integer`` fields.  ``general`` symmetry is accepted only when the
    stored matrix is exactly symmetric.
    """
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise MatrixMarketParseError("empty file", 1)

    header = lines[0].strip().lower().split()
    if len(header) != 5 or " ".join(header[:1]) != _MM_HEADER_PREFIX:
        raise MatrixMarketParseError("missing %%MatrixMarket header", 1)
    _, obj, fmt, field, symmetry = header
    if obj != "matrix":
        raise UnsupportedFormatError(f"object {obj!r} is not supported")
    if field == "complex":
        raise UnsupportedFormatError("complex field is not supported")
    if field == "pattern":
        raise UnsupportedFormatError("pattern field carries no values")
    if field not in ("real", "integer"):
        raise UnsupportedFormatError(f"field {field!r} is not supported")
    if symmetry in ("hermitian", "skew-symmetric"):
        raise UnsupportedFormatError(f"symmetry {symmetry!r} is not supported")
    if symmetry not in ("general", "symmetric"):
        raise MatrixMarketParseError(f"unknown symmetry {symmetry!r}", 1)
    if fmt not in ("coordinate", "array"):
        raise MatrixMarketParseError(f"unknown format {fmt!r}", 1)

    # skip comments, locate the size line
    idx = 1
    while idx < len(lines) and (lines[idx].startswith("%") or not lines[idx].strip()):
        idx += 1
    if idx >= len(lines):
        raise MatrixMarketParseError("missing size line", len(lines))

    if fmt == "coordinate":
        return _read_coordinate(lines, idx, symmetry)
    return _read_array(lines, idx, symmetry)


def _parse_size(line, line_no, expect):
    parts = line.split()
    if len(parts) != expect:
        raise MatrixMarketParseError(
            f"size line must have {expect} fields, got {len(parts)}", line_no
        )
    try:
        return [int(p) for p in parts]
    except ValueError as exc:
        raise MatrixMarketParseError(f"bad size entry: {exc}", line_no) from None


def _read_coordinate(lines, idx, symmetry):
    rows, cols, nnz = _parse_size(lines[idx], idx + 1, 3)
    if rows != cols:
        raise StructuralError(f"matrix is {rows}x{cols}, not square")
    data, ii, jj = [], [], []
    count = 0
    for off, raw in enumerate(lines[idx + 1 :], start=idx + 2):
        text = raw.strip()
        if not text or text.startswith("%"):
            continue
        parts = text.split()
        if len(parts) != 3:
            raise MatrixMarketParseError(
                f"coordinate entry needs 3 fields, got {len(parts)}", off
            )
        try:
            i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise MatrixMarketParseError(str(exc), off) from None
        if not (1 <= i <= rows and 1 <= j <= cols):
            raise MatrixMarketParseError(f"index ({i},{j}) out of range", off)
        count += 1
        if count > nnz:
            raise MatrixMarketParseError("more entries than declared", off)
        ii.append(i - 1)
        jj.append(j - 1)
        data.append(v)
        if symmetry == "symmetric" and i != j:
            ii.append(j - 1)
            jj.append(i - 1)
            data.append(v)
    if count < nnz:
        raise MatrixMarketParseError(
            f"declared {nnz} entries but found {count}", len(lines)
        )
    mat = sp.coo_matrix((data, (ii, jj)), shape=(rows, cols)).tocsr()
    if (mat != mat.T).nnz != 0:
        raise StructuralError("matrix declared general is not symmetric")
    return SymmetricOperator.from_sparse(mat)


def _read_array(lines, idx, symmetry):
    rows, cols = _parse_size(lines[idx], idx + 1, 2)
    if rows != cols:
        raise StructuralError(f"matrix is {rows}x{cols}, not square")
    values = []
    for off, raw in enumerate(lines[idx + 1 :], start=idx + 2):
        text = raw.strip()
        if not text or text.startswith("%"):
            continue
        try:
            values.append(float(text.split()[0]))
        except ValueError as exc:
            raise MatrixMarketParseError(str(exc), off) from None
    mat = np.zeros((rows, cols))
    if symmetry == "symmetric":
        expected = rows * (rows + 1) // 2
        if len(values) != expected:
            raise MatrixMarketParseError(
                f"symmetric array needs {expected} values, found {len(values)}",
                len(lines),
            )
        pos = 0
        for j in range(cols):  # column-major lower triangle
            for i in range(j, rows):
                mat[i, j] = values[pos]
                mat[j, i] = values[pos]
                pos += 1
    else:
        if len(values) != rows * cols:
            raise MatrixMarketParseError(
                f"array needs {rows * cols} values, found {len(values)}", len(lines)
            )
        for j in range(cols):  # column-major
            for i in range(rows):
                mat[i, j] = values[j * rows + i]
        if not np.array_equal(mat, mat.T):
            raise StructuralError("matrix declared general is not symmetric")
    return SymmetricOperator.from_dense(mat)
