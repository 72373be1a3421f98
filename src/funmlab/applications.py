"""Composed applications: soft step, matrix exponentials, top singular value,
and generic polynomial acceleration.

Each routine is a thin composition over the Lanczos core.  Its iteration
count is the asymptotic prescription with fixed constants, written as
literals in the one formula that uses them and named in its docstring;
they were fixed by a calibration sweep, so every count is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np
import scipy.sparse as sp

from .cg import cg_solve
from .errors import DomainError, SolverFailureError, StructuralError
from .functions import ScalarFunction, exp_function
from .lanczos import apply_function, lanczos_decompose
from .operators import SymmetricOperator, check_vector, spectral_range
from .tridiag import eig_tridiagonal

_STEP_VERIFY_GRID = 4001
_CERT_GRID = 2001


# -- soft matrix step ---------------------------------------------------------

def soft_sign_poly(x, q):
    """Odd polynomial ramp approximating sign(x) on [-1, 1].

    Evaluated by the stable product-form recurrence
    ``term_i = term_{i-1} * (1 - x^2) * (2i - 1) / (2i)`` with
    ``term_0 = x``; all terms share the sign of x, so partial sums are
    monotone and bounded by 1.
    """
    x = np.asarray(x, dtype=float)
    term = x.copy()
    total = x.copy()
    shrink = 1.0 - x * x
    for i in range(1, q + 1):
        term = term * shrink * ((2.0 * i - 1.0) / (2.0 * i))
        total = total + term
    return total


@dataclass(frozen=True)
class StepParams:
    """Transition width ``gamma`` and tolerance ``eps`` for the soft step.

    ``q = ceil(4 gamma^-2 ln(1/eps))`` terms of the ramp
    polynomial give a step that is within ``eps`` of {0,1} outside the
    transition band; this containment is verified on a grid when the
    params are built.
    """

    gamma: float
    eps: float

    def __post_init__(self):
        if not 0.0 < self.gamma < 0.5:
            raise DomainError(f"gamma must lie in (0, 1/2), got {self.gamma}")
        if not 0.0 < self.eps < 1.0:
            raise DomainError(f"eps must lie in (0, 1), got {self.eps}")
        grid = np.linspace(-1.0, 1.0, _STEP_VERIFY_GRID)
        s = self.step_values(grid)
        tol = 1e-12
        ok = np.all(s >= -tol) and np.all(s <= 1.0 + tol)
        above = grid >= self.gamma
        below = grid <= -self.gamma
        ok = ok and np.all(s[above] >= 1.0 - self.eps - tol)
        ok = ok and np.all(s[below] <= self.eps + tol)
        if not ok:
            raise StructuralError("soft step failed range verification")

    @property
    def q(self):
        return int(math.ceil(4.0 * self.gamma**-2 * math.log(1.0 / self.eps)))

    def step_values(self, x):
        # clipping removes ~1e-16 roundoff excursions outside [0, 1] so the
        # defining range constraints hold exactly
        return np.clip(0.5 * (1.0 + soft_sign_poly(x, self.q)), 0.0, 1.0)

    def scalar_function(self) -> ScalarFunction:
        return ScalarFunction(
            f"softstep:{self.gamma}:{self.eps}", self.step_values
        )


def soft_step_iterations(params: StepParams):
    """Lanczos iterations ``ceil(4/gamma ln(1/(eps gamma)))`` for the step."""
    return int(
        math.ceil(4.0 / params.gamma * math.log(1.0 / (params.eps * params.gamma)))
    )


def soft_step_apply(b: SymmetricOperator, x, params: StepParams, k=None):
    """Apply the soft step (1 + ramp)/2 of ``b`` to ``x`` via Lanczos.

    Runs ``k`` iterations, by default :func:`soft_step_iterations`.
    Requires a certified bound ``||B|| <= 1/2`` so the step's defining
    range [-1, 1] covers the extended Ritz interval.
    """
    if b.norm_hint is None or b.norm_hint > 0.5:
        raise DomainError("soft step needs an operator with norm hint <= 1/2")
    if k is None:
        k = soft_step_iterations(params)
    x = check_vector(x, b.n, name="x")
    dec = lanczos_decompose(b, x, k)
    return apply_function(dec, params.scalar_function())


def step_reduction_operator(a: SymmetricOperator, lam):
    """Operator ``A (A + lam I)^{-1} - I/2`` for a step at threshold ``lam``.

    Each product solves the shifted system with at most 1000 conjugate
    gradient steps to relative residual 1e-12.  For positive semidefinite
    ``a`` the result has norm at most 1/2, making it a valid soft-step input.
    """
    if lam <= 0:
        raise DomainError(f"shift lam must be positive, got {lam}")
    return _StepReduction(a, lam)


class _ShiftedOperator:
    """Acts as ``offset * I + scale * A`` (here scale fixed to 1/denominator)."""

    def __init__(self, a, scale, offset):
        self._a = a
        self._scale = scale
        self._offset = offset
        self.n = a.n
        hint = a.norm_hint
        self.norm_hint = None if hint is None else abs(offset) + abs(scale) * hint

    def matvec(self, v):
        return self._offset * v + self._scale * self._a.matvec(v)


class _StepReduction:
    def __init__(self, a, lam):
        self._a = a
        self._shifted = _ShiftedOperator(a, 1.0, lam)
        self.n = a.n
        self.norm_hint = 0.5

    def matvec(self, v):
        if not np.any(v):
            return np.zeros_like(v)
        trace = cg_solve(self._shifted, v, 1000, stop_tol=1e-12)
        return self._a.matvec(trace.solution) - 0.5 * v


# -- matrix exponential -------------------------------------------------------

def matrix_exp_apply(a: SymmetricOperator, x, eps):
    """Approximate ``exp(A) x``; error target ``eps * e^{2||A||} ||x||``.

    Runs ``ceil(4 ||A|| + 4 ln(1/eps))`` Lanczos iterations with
    ``f = exp``, the Taylor-degree prescription for uniform accuracy on
    the extended spectral range.
    """
    if not 0.0 < eps <= 1.0:
        raise DomainError(f"eps must lie in (0, 1], got {eps}")
    x = check_vector(x, a.n, name="x")
    norm_a = _operator_norm_bound(a)
    k = max(1, int(math.ceil(4.0 * norm_a + 4.0 * math.log(1.0 / eps))))
    dec = lanczos_decompose(a, x, k)
    return apply_function(dec, exp_function())


class ResolventOperator:
    """Acts as ``(I + A/denominator)^{-1}`` through inner CG solves.

    Each solve runs at most 500 steps, to relative residual ``tol``.
    """

    def __init__(self, a: SymmetricOperator, denominator, tol):
        if denominator <= 0:
            raise DomainError("denominator must be positive")
        self._shifted = _ShiftedOperator(a, 1.0 / denominator, 1.0)
        self._tol = tol
        self.n = a.n
        self.norm_hint = 1.0  # PSD A keeps the resolvent's spectrum in (0, 1]

    def matvec(self, v):
        if not np.any(v):
            return np.zeros_like(v)
        trace = cg_solve(self._shifted, v, 500, stop_tol=self._tol)
        return trace.solution


def matrix_exp_psd_apply(a: SymmetricOperator, x, eps):
    """Approximate ``exp(-A) x`` for positive semidefinite ``A``.

    Works through the resolvent ``B = (I + A/k)^{-1}`` with
    ``f(t) = exp(k - k/t)``, so only ``k = ceil(4 ln(1/eps))`` inner
    linear solves are needed; error target ``eps ||x||``.
    """
    if not 0.0 < eps < 1.0:
        raise DomainError(f"eps must lie in (0, 1), got {eps}")
    x = check_vector(x, a.n, name="x")
    k = max(1, int(math.ceil(4.0 * math.log(1.0 / eps))))
    inner_tol = max(eps**2 / (a.n * k), 1e-14)
    resolvent = ResolventOperator(a, k, inner_tol)
    dec = lanczos_decompose(resolvent, x, k)
    f = ScalarFunction(f"exp_resolvent:{k}", lambda t: np.exp(k - k / t))
    return apply_function(dec, f)


def _operator_norm_bound(a):
    if a.norm_hint is not None:
        return a.norm_hint
    lo, hi = spectral_range(a, probe_iters=min(a.n, 30), margin=0.05)
    return max(abs(lo), abs(hi))


# -- top singular value -------------------------------------------------------

def power_iteration_exponent(n, delta):
    """Power-method exponent ``q = ceil((4/delta) ln(n/delta))``."""
    return int(math.ceil(4.0 / delta * math.log(n / delta)))


def top_singular_iterations(n, delta):
    """Lanczos iterations ``ceil(4 sqrt(1/delta) ln(n/delta))`` per trial."""
    return max(1, int(math.ceil(4.0 * math.sqrt(1.0 / delta) * math.log(n / delta))))


def top_singular_value(b, delta, trials=10, seed=0):
    """Estimate ``sigma_max(B)`` and a near-top right singular vector.

    Each trial seeds a uniform +-1 start vector, runs Lanczos on the
    Gram operator ``B^T B``, and applies the normalized power function
    ``(t / lambda_max(T))^q``.  The trial maximizing ``||B y|| / ||y||``
    wins; with the prescribed iteration counts each single trial
    succeeds (ratio at least ``(1 - delta) sigma_max``) with probability
    at least 1/2.
    """
    if not 0.0 < delta <= 0.5:
        raise DomainError(f"delta must lie in (0, 1/2], got {delta}")
    if trials < 1:
        raise StructuralError("trials must be at least 1")
    if not sp.issparse(b):
        b = np.asarray(b, dtype=float)
        if b.ndim != 2:
            raise StructuralError("b must be a matrix")
    n = b.shape[1]
    gram = SymmetricOperator.gram(b)
    q = power_iteration_exponent(n, delta)
    k = top_singular_iterations(n, delta)

    best_ratio = -np.inf
    best_vector = None
    for trial in range(trials):
        outcome = _single_power_trial(b, gram, q, k, seed, trial)
        if outcome is None:
            continue
        ratio, vector, _ = outcome
        if ratio > best_ratio:
            best_ratio, best_vector = ratio, vector
    if best_vector is None:
        raise SolverFailureError(
            f"all {trials} power trials degenerated to the zero vector"
        )
    return best_ratio, best_vector


def _single_power_trial(b, gram, q, k, seed, trial):
    """One seeded power trial; returns (ratio, unit vector, ||y||) or None.

    Draws up to 5 start vectors, until one gives a positive top Ritz value
    and a nonzero finite ``y``.  The power function is normalized by the
    top Ritz value, so on trials where the start vector has the usual
    1/sqrt(n) overlap with the top eigenvector, ||y|| stays bounded below
    by ~1/n.
    """
    base = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
    for attempt in range(5):
        rng = np.random.default_rng((*base, trial, attempt))
        z = rng.integers(0, 2, size=gram.n) * 2.0 - 1.0
        dec = lanczos_decompose(gram, z, k)
        eig = eig_tridiagonal(dec.tridiagonal())
        ritz_max = float(eig.values[-1])
        if ritz_max <= 0.0:
            continue
        fvals = (eig.values / ritz_max) ** q
        y = dec.x_norm * (dec.q_basis @ (eig.vectors @ (fvals * eig.vectors[0, :])))
        norm_y = float(np.linalg.norm(y))
        if norm_y == 0.0 or not np.isfinite(norm_y):
            continue
        ratio = float(np.linalg.norm(b @ y) / norm_y)
        return ratio, y / norm_y, norm_y
    return None


# -- generic polynomial acceleration ------------------------------------------

@dataclass(frozen=True)
class AccelTerm:
    """One summand ``outer(x) * inner(x)^power`` of an accelerable polynomial.

    ``outer`` and ``inner`` are monomial coefficient arrays (low degree,
    at most 4); ``outer_bound`` certifies ``|outer| <= outer_bound`` and
    ``|inner| <= 1`` on [-1, 1].
    """

    outer: np.ndarray
    inner: np.ndarray
    power: int
    outer_bound: float

    def __post_init__(self):
        outer = np.atleast_1d(np.asarray(self.outer, dtype=float))
        inner = np.atleast_1d(np.asarray(self.inner, dtype=float))
        if outer.size > 5 or inner.size > 5:
            raise StructuralError("factor polynomials are limited to degree 4")
        if self.power < 0:
            raise StructuralError("power must be nonnegative")
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "inner", inner)

    @property
    def degree(self):
        return (self.outer.size - 1) + self.power * (self.inner.size - 1)

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        out = np.polyval(self.outer[::-1], x)
        if self.power:
            out = out * np.polyval(self.inner[::-1], x) ** self.power
        return out


@dataclass(frozen=True)
class AccelPolySpec:
    """Sum of certified terms; total magnitude bound is the sum of bounds."""

    terms: Tuple[AccelTerm, ...]

    def __post_init__(self):
        if not self.terms:
            raise StructuralError("need at least one term")
        grid = np.linspace(-1.0, 1.0, _CERT_GRID)
        for term in self.terms:
            inner_max = float(np.max(np.abs(np.polyval(term.inner[::-1], grid))))
            if inner_max > 1.0 + 1e-9:
                raise StructuralError(
                    f"inner factor exceeds 1 on [-1,1] (max {inner_max})"
                )
            outer_max = float(np.max(np.abs(np.polyval(term.outer[::-1], grid))))
            if outer_max > term.outer_bound + 1e-9:
                raise StructuralError(
                    f"outer factor exceeds its bound {term.outer_bound} "
                    f"(max {outer_max})"
                )

    @classmethod
    def monomial(cls, power):
        """The spec encoding p(x) = x^power."""
        return cls((AccelTerm(np.array([1.0]), np.array([0.0, 1.0]),
                              int(power), 1.0),))

    @property
    def total_bound(self):
        return float(sum(t.outer_bound for t in self.terms))

    @property
    def degree_bound(self):
        return max(t.degree for t in self.terms)

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        total = np.zeros_like(x)
        for term in self.terms:
            total = total + term.evaluate(x)
        return total

    def scalar_function(self) -> ScalarFunction:
        return ScalarFunction("accel_poly", self.evaluate)


def accel_iterations(spec: AccelPolySpec, eps):
    """Lanczos iterations ``ceil(2 sqrt(k ln(k A / eps)))`` for the spec."""
    k = max(1, spec.degree_bound)
    inside = max(k * spec.total_bound / eps, 2.0)
    return max(1, int(math.ceil(2.0 * math.sqrt(k * math.log(inside)))))


def accelerated_poly_apply(a: SymmetricOperator, x, spec: AccelPolySpec, eps):
    """Apply a high-degree certified polynomial in ~sqrt(degree) iterations.

    Error target ``eps * A_total * ||x||`` where ``A_total`` is the
    spec's summed magnitude bound; requires ``||A|| <= 1``.
    """
    if a.norm_hint is None or a.norm_hint > 1.0:
        raise DomainError("acceleration needs an operator with norm hint <= 1")
    if not 0.0 < eps <= 1.0:
        raise DomainError(f"eps must lie in (0, 1], got {eps}")
    x = check_vector(x, a.n, name="x")
    q = accel_iterations(spec, eps)
    dec = lanczos_decompose(a, x, q)
    return apply_function(dec, spec.scalar_function())
