"""Test-side oracles: plain recurrences and checks that the package never calls.

``cheb_T`` and ``cheb_U`` run the three-term recurrences directly (not
trig identities), since the recurrence itself is the stability object
the package reasons about.
"""

import numpy as np

from funmlab import ChebyshevExpansion, EigenDecomposition, StructuralError, cg_solve
from funmlab.chebyshev import to_unit
from funmlab.operators import check_vector


def cheb_T(i, x):
    """First-kind Chebyshev value T_i(x) via T_i = 2x T_{i-1} - T_{i-2}."""
    if i < 0:
        raise StructuralError("first-kind index must be nonnegative")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if i == 0:
        return prev if prev.ndim else float(prev)
    cur = x.copy()
    for _ in range(i - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur if cur.ndim else float(cur)


def cheb_U(i, x):
    """Second-kind Chebyshev value U_i(x); U_i = 0 for i < 0."""
    x = np.asarray(x, dtype=float)
    if i < 0:
        out = np.zeros_like(x)
        return out if out.ndim else float(out)
    prev = np.ones_like(x)
    if i == 0:
        return prev if prev.ndim else float(prev)
    cur = 2.0 * x
    for _ in range(i - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur if cur.ndim else float(cur)


def evaluate_direct(expansion: ChebyshevExpansion, x):
    """Plain sum of c_i T_i(x); cross-checks Clenshaw evaluation."""
    t = to_unit(x, expansion.interval)
    total = np.zeros_like(np.asarray(t, dtype=float))
    for i, c in enumerate(expansion.coeffs):
        if c != 0.0:
            total = total + c * cheb_T(i, t)
    return total


def reconstruct(eig: EigenDecomposition):
    """``V diag(values) V^T``, the matrix an eigendecomposition stands for."""
    return (eig.vectors * eig.values) @ eig.vectors.T


def anorm_optimality_check(a, b, k, trial_polys=100, seed=0):
    """Check A-norm optimality of the k-th CG iterate against random polynomials.

    Samples ``trial_polys`` random degree-(k-1) polynomials expressed in
    the Chebyshev basis of the spectral hull and verifies that none beats
    the CG iterate in the A-norm (up to 1e-9 slack).  One dense ``eigh``
    serves every candidate ``p(A) b``; each equals
    :func:`~funmlab.operators.exact_matrix_function`'s bit for bit.
    """
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
