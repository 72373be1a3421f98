"""Symmetric tridiagonal eigendecomposition through LAPACK's MRRR solver.

``eig_tridiagonal`` calls ``scipy.linalg.eigh_tridiagonal`` with its
default driver (``?stemr``, the multiple relatively robust
representations algorithm of Dhillon and Parlett), always in double
precision, on both the exact and the emulated Lanczos paths.  The
contract it must satisfy (and which the tests check directly) is
backward stability,

    ||V diag(L) V^T - T|| <= c k eps ||T||    and    ||V^T V - I|| <= c k eps,

which is what the Lanczos post-processing step relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import DomainError, SolverFailureError, StructuralError
from .operators import EigenDecomposition
from .functions import ScalarFunction, evaluate_scalar


@dataclass(frozen=True)
class TridiagonalMatrix:
    """Symmetric tridiagonal coefficients: diagonal and first off-diagonal."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.diag, dtype=float)
        e = np.asarray(self.offdiag, dtype=float)
        if d.ndim != 1 or d.size < 1:
            raise StructuralError("diagonal must be a nonempty 1-D array")
        if e.shape != (d.size - 1,):
            raise StructuralError(
                f"offdiagonal must have length {d.size - 1}, got {e.shape}"
            )
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
            raise DomainError("tridiagonal entries must be finite")
        object.__setattr__(self, "diag", d)
        object.__setattr__(self, "offdiag", e)

    @property
    def k(self):
        return self.diag.size

    def norm_bound(self):
        """Cheap upper bound max_i(|a_i| + |b_i| + |b_{i+1}|) on ||T||."""
        d = np.abs(self.diag)
        e = np.abs(self.offdiag)
        total = d.copy()
        total[1:] += e
        total[:-1] += e
        return float(np.max(total))

    def to_dense(self):
        t = np.diag(self.diag)
        k = self.k
        idx = np.arange(k - 1)
        t[idx, idx + 1] = self.offdiag
        t[idx + 1, idx] = self.offdiag
        return t


def eig_tridiagonal(t: TridiagonalMatrix) -> EigenDecomposition:
    """Eigendecomposition of a symmetric tridiagonal matrix, values ascending."""
    try:
        values, vectors = eigh_tridiagonal(t.diag, t.offdiag)
    except np.linalg.LinAlgError as exc:
        raise SolverFailureError(f"tridiagonal eigensolve failed: {exc}") from exc
    return EigenDecomposition(values=values, vectors=vectors)


def apply_scalar_to_e1(t: TridiagonalMatrix, f: ScalarFunction) -> np.ndarray:
    """Compute ``V f(L) V^T e_1`` for the tridiagonal ``T = V L V^T``."""
    dec = eig_tridiagonal(t)
    fvals = evaluate_scalar(f, dec.values)
    first_row = dec.vectors[0, :]  # V^T e_1
    return dec.vectors @ (fvals * first_row)
