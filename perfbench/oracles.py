"""Reference answers computed without the code under test.

Nothing here imports ``funmlab``.  Matrix functions come from LAPACK
``eigh``, from the closed form ``f(d) x`` for diagonal inputs, or from the
DST-I eigenbasis of the 2-D Dirichlet Laplacian.  Error bounds use the
exact-arithmetic Lanczos bound ``2 ||x|| min_p max_i |f(l_i) - p(l_i)|``
over polynomials of degree ``k - 1``, with the minimum bounded above by
the Chebyshev interpolant on the spectral hull.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.fft
from numpy.polynomial import chebyshev as npcheb
from scipy.optimize import linprog

EPS = np.finfo(float).eps

FUNCTIONS = {
    "sqrt": np.sqrt,
    "exp": np.exp,
    "inv": lambda t: 1.0 / t,
    "log": np.log,
}


class Spectral:
    """``A = V diag(values) V^T`` in one of three independent forms.

    The decomposition is computed on first use, so building a workload
    does not pay for its oracle.
    """

    def __init__(self, factory):
        self._factory = factory
        self._parts = None

    def _get(self):
        if self._parts is None:
            self._parts = self._factory()
        return self._parts

    @property
    def values(self):
        """Eigenvalues, ascending."""
        return self._get()[0]

    def apply(self, fn, x):
        """``fn(A) x``."""
        return self._get()[1](fn, x)

    @property
    def norm(self):
        return float(np.max(np.abs(self.values)))

    @classmethod
    def dense(cls, mat):
        def factory():
            values, vectors = np.linalg.eigh(mat)
            return values, lambda fn, x: vectors @ (fn(values) * (vectors.T @ x))
        return cls(factory)

    @classmethod
    def diagonal(cls, d):
        d = np.asarray(d, dtype=float)
        return cls(lambda: (np.sort(d), lambda fn, x: fn(d) * x))

    @classmethod
    def laplacian_2d(cls, m, scale):
        """``scale * (L1 (x) I + I (x) L1)`` with ``L1 = tridiag(-1, 2, -1)``."""
        def factory():
            lam1 = 2.0 - 2.0 * np.cos(np.arange(1, m + 1) * np.pi / (m + 1))
            lam = scale * (lam1[:, None] + lam1[None, :])

            def apply(fn, x):
                coeffs = scipy.fft.dstn(x.reshape(m, m), type=1, norm="ortho")
                return scipy.fft.dstn(fn(lam) * coeffs, type=1, norm="ortho").ravel()

            return np.sort(lam.ravel()), apply
        return cls(factory)


def chebyshev_error(fn, values, degree):
    """``max_i |fn(v_i) - p(v_i)|`` for the degree-``degree`` Chebyshev
    interpolant ``p`` of ``fn`` on ``[min v, max v]``."""
    lo, hi = float(values[0]), float(values[-1])
    if hi - lo <= 1e-14 * max(abs(lo), abs(hi), 1.0):
        return 0.0
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    coeffs = npcheb.chebinterpolate(lambda t: fn(mid + half * t), degree)
    return float(np.max(np.abs(fn(values) - npcheb.chebval((values - mid) / half, coeffs))))


def lanczos_error_bound(fn, spectral, x, k):
    """Allowed ``||y - fn(A) x||`` for a k-step Lanczos approximation.

    The exact-arithmetic bound doubled for slack, plus a rounding floor
    proportional to ``k eps ||x|| max|fn|``.
    """
    x_norm = float(np.linalg.norm(x))
    fmax = float(np.max(np.abs(fn(spectral.values))))
    best = chebyshev_error(fn, spectral.values, k - 1)
    return 4.0 * best * x_norm + 1e3 * k * EPS * x_norm * fmax


def hard_spectrum_values(kappa, eta):
    """The paper's hard spectrum: ascending eigenvalues, their dyadic
    bucket indices, and the per-bucket count ``z``."""
    num_buckets = int(math.floor(math.log2(kappa)))
    z = int(math.ceil(math.log(1.0 / eta)))
    pairs = sorted((2.0 ** -i + j / (z * 2.0 ** i), i)
                   for i in range(1, num_buckets + 1) for j in range(1, z + 1))
    values, buckets = (np.asarray(col, dtype=float) for col in zip(*pairs))
    return values, buckets, z


def soft_step(x, q):
    """``(1 + ramp_q(x)) / 2`` clipped to [0, 1], ramp by its product form."""
    term = np.array(x, dtype=float)
    total = term.copy()
    shrink = 1.0 - term * term
    for i in range(1, q + 1):
        term = term * shrink * ((2.0 * i - 1.0) / (2.0 * i))
        total = total + term
    return np.clip(0.5 * (1.0 + total), 0.0, 1.0)


def paige_verdict(a_dense, q, alphas, betas, beta_next, q_next, eps):
    """Paige's finite-precision inequalities with exact 2-norms.

    Returns ``(passed, detail)``; every norm is ``np.linalg.norm(., 2)``.
    """
    n = a_dense.shape[0]
    k = alphas.size
    t = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
    residual = a_dense @ q - q @ t
    residual[:, -1] -= beta_next * q_next
    residual_norm = float(np.linalg.norm(residual, 2))
    spectrum = np.linalg.eigvalsh(a_dense)
    norm_a = float(np.max(np.abs(spectrum)))
    ritz = np.linalg.eigvalsh(t)
    drift = float(np.max(np.abs(np.linalg.norm(q, axis=0) - 1.0)))
    excursion = max(float(spectrum[0] - ritz[0]), float(ritz[-1] - spectrum[-1]))
    bounds = {
        "residual_norm": (residual_norm, k * (2.0 * n ** 1.5 + 7.0) * norm_a * eps),
        "qnorm_drift": (drift, (n + 4.0) * eps),
        "ritz_containment": (excursion, k ** 2.5 * norm_a * (68.0 + 17.0 * n ** 1.5) * eps),
    }
    passed = all(measured <= bound for measured, bound in bounds.values())
    return passed, bounds


def grid_minimax(fn, intervals, points_per_interval, degree):
    """Optimal uniform error of a degree-``degree`` polynomial on a grid.

    The grid holds Chebyshev points of the second kind in every interval.
    Solved as an epigraph LP in the Chebyshev basis of the hull with
    HiGHS.  A grid optimum never exceeds the optimum over the intervals.
    """
    nodes = np.cos(np.pi * np.arange(points_per_interval) / (points_per_interval - 1))
    grid = np.concatenate([0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes for lo, hi in intervals])
    lo, hi = intervals[0][0], intervals[-1][1]
    basis = npcheb.chebvander((2.0 * grid - (lo + hi)) / (hi - lo), degree)
    values = fn(grid)
    ones = np.ones((grid.size, 1))
    a_ub = np.block([[basis, -ones], [-basis, -ones]])
    b_ub = np.concatenate([values, -values])
    cost = np.zeros(degree + 2)
    cost[-1] = 1.0
    bounds = [(None, None)] * (degree + 1) + [(0.0, None)]
    result = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not result.success:
        raise RuntimeError(f"oracle LP failed: {result.message}")
    return float(result.x[-1])


def potential(eigenvalues, buckets, eta, r, c):
    """``sum_i 2^(b_i c) int_{l_i - eta}^{l_i + eta} ln|1 - x/r| dx``, closed form.

    Returns the value and a bound on its rounding error: the antiderivative
    differences cancel when the intervals are narrow.
    """
    def phi(t):
        out = np.zeros_like(t)
        nz = t != 0.0
        out[nz] = t[nz] * np.log(np.abs(t[nz])) - t[nz]
        return out

    lo, hi = eigenvalues - eta, eigenvalues + eta
    upper, lower, shift = phi(hi - r), phi(lo - r), (hi - lo) * math.log(r)
    weights = 2.0 ** (buckets * c)
    value = float(np.sum(weights * (upper - lower - shift)))
    magnitude = float(np.sum(weights * (np.abs(upper) + np.abs(lower) + np.abs(shift))))
    return value, 1e3 * EPS * magnitude
