"""Conjugate gradient for positive definite systems, with Lanczos cross-checks.

Two recurrences are available.  The default is the textbook one
(``alpha = <r,r>/<p,Ap>``, ``beta = <r',r'>/<r,r>``, ``p = r' + beta p``).
``paper_literal=True`` selects the square-free variant
(``alpha = ||r||/<r,Ap>``, ``beta = -||r'||/||r||``, ``p = r' - beta p``),
which does not reproduce ``A^{-1} b`` on hand examples and exists only so
the difference can be demonstrated; every bound check in this package
uses the textbook recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonpositiveCurvatureError, StructuralError
from .functions import inverse_function
from .lanczos import apply_function, lanczos_decompose
from .operators import EigenDecomposition, SymmetricOperator, check_vector

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class CgTrace:
    """Iterate and coefficient history of one conjugate gradient run.

    ``iterates[i]`` is the solution after i steps (``iterates[0]`` is the
    zero start), ``residual_norms[i]`` the matching residual norm.
    """

    iterates: np.ndarray
    residual_norms: np.ndarray
    alphas: np.ndarray
    betas: np.ndarray

    def __post_init__(self):
        if len(self.iterates) != len(self.residual_norms):
            raise StructuralError("iterates and residual norms disagree in length")
        if len(self.alphas) != len(self.iterates) - 1:
            raise StructuralError("one alpha is recorded per iteration")
        if np.any(np.asarray(self.residual_norms) < 0):
            raise StructuralError("residual norms must be nonnegative")

    @property
    def solution(self):
        return self.iterates[-1]

    @property
    def iterations(self):
        return len(self.alphas)


def cg_solve(a: SymmetricOperator, b, k, stop_tol=0.0, paper_literal=False) -> CgTrace:
    """Run conjugate gradient on ``A y = b`` for at most ``k`` iterations.

    Stops early when the residual drops below ``stop_tol * ||b||`` or the
    beta coefficient vanishes.  Nonpositive curvature along a search
    direction raises, signalling a non-positive-definite operator.
    """
    if k < 1:
        raise StructuralError(f"iteration count k must be >= 1, got {k}")
    b = check_vector(b, a.n, name="b")

    y = np.zeros(a.n)
    r = b.copy()
    p = b.copy()
    b_norm = float(np.linalg.norm(b))
    iterates = [y.copy()]
    residual_norms = [b_norm]
    alphas, betas = [], []

    for _ in range(k):
        ap = a.matvec(p)
        if paper_literal:
            denom = float(r @ ap)
        else:
            denom = float(p @ ap)
        if denom <= 0.0:
            raise NonpositiveCurvatureError(
                f"direction curvature {denom} is not positive"
            )
        r_norm = float(np.linalg.norm(r))
        if paper_literal:
            alpha = r_norm / denom
        else:
            alpha = r_norm**2 / denom
        y = y + alpha * p
        r_new = r - alpha * ap
        r_new_norm = float(np.linalg.norm(r_new))
        if paper_literal:
            beta = -r_new_norm / r_norm if r_norm > 0 else 0.0
        else:
            beta = (r_new_norm / r_norm) ** 2 if r_norm > 0 else 0.0

        alphas.append(alpha)
        iterates.append(y.copy())
        residual_norms.append(r_new_norm)
        if r_new_norm <= stop_tol * b_norm or abs(beta) <= _EPS:
            break
        betas.append(beta)
        if paper_literal:
            p = r_new - beta * p
        else:
            p = r_new + beta * p
        r = r_new

    return CgTrace(
        iterates=np.asarray(iterates),
        residual_norms=np.asarray(residual_norms),
        alphas=np.asarray(alphas),
        betas=np.asarray(betas),
    )


def lanczos_cg_equivalence(a: SymmetricOperator, b, k):
    """Distance between the k-th CG iterate and ``||b|| Q T^{-1} e_1``.

    Returned relative to ``||A^{-1} b||`` (dense LAPACK reference).
    """
    b = check_vector(b, a.n, name="b")
    trace = cg_solve(a, b, k)
    dec = lanczos_decompose(a, b, k)
    y_lanczos = apply_function(dec, inverse_function())
    reference = np.linalg.solve(a.to_dense(), b)
    return float(
        np.linalg.norm(trace.solution - y_lanczos) / np.linalg.norm(reference)
    )


def anorm_optimality_check(a: SymmetricOperator, b, k, trial_polys=100, seed=0):
    """Check A-norm optimality of the k-th CG iterate against random polynomials.

    Samples ``trial_polys`` random degree-(k-1) polynomials expressed in
    the Chebyshev basis of the spectral hull and verifies that none beats
    the CG iterate in the A-norm (up to 1e-9 slack).  One dense ``eigh``
    serves every candidate ``p(A) b``; each equals
    :func:`~funmlab.operators.exact_matrix_function`'s bit for bit.
    """
    from .chebyshev import ChebyshevExpansion

    b = check_vector(b, a.n, name="b")
    trace = cg_solve(a, b, k)
    dense = a.to_dense()
    exact = np.linalg.solve(dense, b)

    def a_norm(v):
        return float(np.sqrt(max(v @ a.matvec(v), 0.0)))

    cg_error = a_norm(exact - trace.solution)
    spectrum = np.linalg.eigvalsh(dense)
    hull = (float(spectrum[0]), float(spectrum[-1]))
    if hull[0] == hull[1]:
        hull = (hull[0] - 0.5, hull[1] + 0.5)

    eig = EigenDecomposition(*np.linalg.eigh(dense))
    rng = np.random.default_rng(seed)
    for _ in range(trial_polys):
        coeffs = rng.uniform(-1.0, 1.0, size=k)
        poly = ChebyshevExpansion(hull, coeffs)
        candidate = eig.apply(poly.evaluate, b)
        if a_norm(exact - candidate) < cg_error - 1e-9:
            return False
    return True
