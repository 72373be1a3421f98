"""The Lanczos tridiagonalization and matrix-function application.

The recurrence is implemented once, over a pluggable arithmetic context,
so the double-precision path and the reduced-precision emulation in
:mod:`funmlab.precision` execute the identical sequence of operations.
At full width the emulated run therefore reproduces this module's output
bit for bit.

The basis is stored as rows: step i writes ``q_i`` into row i of a
C-ordered ``(k, n)`` buffer, one contiguous write, and the decomposition
holds ``Q`` as the transpose view, an F-contiguous ``(n, k)`` array with
no copy.  A column write into a C-ordered ``(n, k)`` array would stride
by k floats per entry, touching a new cache line for each of the n
entries.  The layout changes no value of the recurrence; it does decide
which BLAS kernel forms ``Q z`` and ``Q T``, and so the last bits of
those products.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, StructuralError
from .functions import ScalarFunction
from .operators import SymmetricOperator, check_vector
from .tridiag import TridiagonalMatrix, apply_scalar_to_e1

_EPS = np.finfo(float).eps

# scaled default: beta is negligible below 64 n eps max(norm hint, |alpha|)
BREAKDOWN_REL_FACTOR = 64.0


@dataclass(frozen=True)
class LanczosDecomposition:
    """Basis, tridiagonal coefficients, and trailing residual pair.

    Satisfies ``A Q = Q T + beta_next q_next e_k^T`` up to the roundoff
    studied by the precision lab.  ``betas`` holds the off-diagonal
    entries ``beta_2 .. beta_m`` for ``m = steps_taken``.

    ``q_basis`` is F-contiguous, ``(n, m)``: the transpose of the row
    buffer the recurrence fills (see the module docstring), holding
    exactly m rows of n floats also after a breakdown.
    """

    q_basis: np.ndarray
    alphas: np.ndarray
    betas: np.ndarray
    beta_next: float
    q_next: np.ndarray
    steps_taken: int
    requested_k: int
    breakdown: bool
    x_norm: float

    def tridiagonal(self) -> TridiagonalMatrix:
        return TridiagonalMatrix(self.alphas, self.betas)

    def prefix(self, j) -> "LanczosDecomposition":
        """The ``j``-step run from the same start, bit for bit: no step reads ``k``.

        Equal field for field, layout included: ``q_basis`` is an
        F-ordered copy of the first ``j`` columns, as a ``j``-step run
        stores it, so products with it round as that run's do.
        """
        if not 1 <= j <= self.requested_k:
            raise StructuralError(f"prefix length must be in 1..{self.requested_k}")
        if j >= self.steps_taken:
            return replace(self, requested_k=j, breakdown=self.steps_taken < j)
        return replace(
            self, q_basis=self.q_basis[:, :j].copy(order="F"), alphas=self.alphas[:j],
            betas=self.betas[:j - 1], beta_next=float(self.betas[j - 1]),
            q_next=self.q_basis[:, j].copy(), steps_taken=j, requested_k=j,
            breakdown=False,
        )


class ExactArithmetic:
    """Double-precision ops with ascending-index accumulation throughout."""

    def sub_scaled(self, w, c, v):
        """``w - c v``, rounded as ``w - (c * v)``; one temporary, no argument written."""
        t = c * v
        return np.subtract(w, t, out=t)

    def div(self, v, c):
        return v / c

    def dot(self, u, v):
        return float(np.cumsum(u * v)[-1])

    def norm(self, v):
        return float(np.sqrt(np.cumsum(v * v)[-1]))

    def make_matvec(self, a: SymmetricOperator):
        return a.matvec


def lanczos_core(matvec, x, k, ops, breakdown_tol, norm_hint, eps):
    """Run the three-term recurrence; shared by exact and emulated paths.

    Executes, for i = 1..k: orthogonalize ``A q_i`` against ``q_{i-1}``
    via ``beta_i``, compute ``alpha_i`` as the inner product with ``q_i``,
    orthogonalize, then normalize.  Breakdown ends the loop early when
    ``beta_{i+1}`` falls below the scaled tolerance.
    """
    if k < 1:
        raise StructuralError(f"iteration count k must be >= 1, got {k}")
    if breakdown_tol is None:
        breakdown_tol = BREAKDOWN_REL_FACTOR * x.size * eps
    if breakdown_tol < 0:
        raise StructuralError("breakdown_tol must be nonnegative")

    x_norm = ops.norm(x)
    if x_norm == 0.0:
        raise DomainError("starting vector must be nonzero")

    n = x.size
    q_prev = np.zeros(n)
    q = ops.div(x, x_norm)
    beta = 0.0
    rows = np.empty((k, n))
    alphas = []
    betas = []
    breakdown = False
    beta_next = 0.0
    q_next = np.zeros(n)

    for i in range(1, k + 1):
        rows[i - 1] = q
        w = matvec(q)
        w = ops.sub_scaled(w, beta, q_prev)
        alpha = ops.dot(w, q)
        w = ops.sub_scaled(w, alpha, q)
        beta_next = ops.norm(w)
        alphas.append(alpha)
        # the running max folds in the same order as max() over all alphas
        alpha_max = abs(alpha) if i == 1 else max(alpha_max, abs(alpha))

        scale = max(norm_hint or 0.0, alpha_max)
        if beta_next <= breakdown_tol * scale:
            breakdown = i < k
            beta_next = float(beta_next)
            q_next = np.zeros(n)
            break
        if i == k:
            q_next = ops.div(w, beta_next)
            break
        betas.append(beta_next)
        q_prev = q
        q = ops.div(w, beta_next)
        beta = beta_next

    steps = len(alphas)
    if steps < k:
        # a copy, so the k-row buffer is freed
        rows = rows[:steps].copy()
    return LanczosDecomposition(
        q_basis=rows.T,
        alphas=np.asarray(alphas, dtype=float),
        betas=np.asarray(betas, dtype=float),
        beta_next=float(beta_next),
        q_next=np.asarray(q_next, dtype=float),
        steps_taken=steps,
        requested_k=k,
        breakdown=breakdown,
        x_norm=float(x_norm),
    )


def lanczos_decompose(
    a: SymmetricOperator, x, k, breakdown_tol=None
) -> LanczosDecomposition:
    """Tridiagonalize ``a`` from start vector ``x`` for ``k`` iterations."""
    x = check_vector(x, a.n, name="x")
    ops = ExactArithmetic()
    return lanczos_core(
        ops.make_matvec(a),
        x,
        k,
        ops,
        breakdown_tol,
        a.norm_hint,
        _EPS,
    )


def apply_function(dec: LanczosDecomposition, f: ScalarFunction):
    """Step 12: return ``||x|| Q f(T) e_1``."""
    z = apply_scalar_to_e1(dec.tridiagonal(), f)
    return dec.x_norm * (dec.q_basis @ z)


def lanczos_apply(a: SymmetricOperator, x, k, f):
    """Convenience wrapper: decompose then apply ``f``."""
    return apply_function(lanczos_decompose(a, x, k), f)


def three_term_residual(dec: LanczosDecomposition, a: SymmetricOperator):
    """Spectral norm of ``A Q - Q T - beta_next q_next e_k^T`` (the E of Paige).

    Computed exactly (largest singular value) so that a check of this
    value against an upper bound is never flattered by an underestimate.
    """
    q = dec.q_basis
    t = dec.tridiagonal().to_dense()
    aq = np.column_stack([a.matvec(q[:, j]) for j in range(q.shape[1])])
    residual = aq - q @ t
    residual[:, -1] -= dec.beta_next * dec.q_next
    return float(np.linalg.norm(residual, 2))


def orthogonality_defect(dec: LanczosDecomposition):
    """Spectral norm of the Gram defect ``Q^T Q - I``, computed exactly."""
    q = dec.q_basis
    gram = q.T @ q - np.eye(q.shape[1])
    return float(np.linalg.norm(gram, 2))
