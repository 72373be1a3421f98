"""Discrete minimax polynomial approximation over unions of intervals.

The best degree-d approximation is found as a linear program in epigraph
form on a Chebyshev-distributed grid, followed by one exchange pass that
re-solves with the local extrema of the error adjoined.  Each LP is solved
by constraint generation on that same grid: it runs on an active set of
grid points and adds every point that the current solution violates until
none does, which gives the full-grid optimum while passing the solver a
few percent of the rows.  The variables live in the Chebyshev basis of
the union's hull, which keeps the LP well conditioned on one interval up
to degree ~200; on the clustered hard-spectrum grids its columns become
numerically rank deficient past degree ~80.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np
from numpy.polynomial.chebyshev import chebvander
from scipy.optimize import linprog

from .chebyshev import ChebyshevExpansion, to_unit
from .errors import CapacityError, DomainError, SolverFailureError, StructuralError
from .functions import evaluate_scalar

DEGREE_CAP = 200
DEFAULT_GRID = 64
_REFINE_FACTOR = 8


@dataclass(frozen=True)
class IntervalUnion:
    """Disjoint closed intervals with a per-interval discretization grid.

    Degenerate intervals (``l == u``) act as single points, which is how
    eigenvalue-point domains are expressed.
    """

    intervals: Tuple[Tuple[float, float], ...]
    grid_per_interval: int = DEFAULT_GRID

    def __post_init__(self):
        if self.grid_per_interval < 2:
            raise StructuralError("grid_per_interval must be at least 2")
        cleaned = []
        for lo, hi in self.intervals:
            lo, hi = float(lo), float(hi)
            if not lo <= hi:
                raise StructuralError(f"interval [{lo}, {hi}] is empty")
            cleaned.append((lo, hi))
        if not cleaned:
            raise StructuralError("interval union must be nonempty")
        for (_, hi), (lo, _) in zip(cleaned, cleaned[1:]):
            if not hi < lo:
                raise StructuralError(
                    "intervals must be sorted ascending and strictly disjoint"
                )
        object.__setattr__(self, "intervals", tuple(cleaned))

    @classmethod
    def single(cls, lo, hi):
        return cls(((lo, hi),))

    @classmethod
    def from_points(cls, points, radius=0.0):
        pts = sorted(float(p) for p in points)
        return cls(tuple((p - radius, p + radius) for p in pts))

    @property
    def hull(self):
        return (self.intervals[0][0], self.intervals[-1][1])

    def grid(self):
        """Chebyshev-distributed points per interval, endpoints included."""
        m = self.grid_per_interval
        pieces = []
        # second-kind nodes cos(pi j/(m-1)) include both endpoints
        nodes = np.cos(np.pi * np.arange(m - 1, -1, -1) / (m - 1))
        for lo, hi in self.intervals:
            if lo == hi:
                pieces.append(np.array([lo]))
            else:
                mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
                pieces.append(mid + half * nodes)
        return np.concatenate(pieces)


def chebyshev_columns(x, hull, ncols):
    """Matrix with columns T_0(t) .. T_{ncols-1}(t) for t = unit-mapped x.

    C-contiguous, because BLAS rounds ``phi @ coeffs`` differently on the
    column-strided array ``chebvander`` returns.
    """
    return np.ascontiguousarray(chebvander(to_unit(x, hull), ncols - 1))


def _solve_epigraph(grid, values, hull, degree, seeds):
    """Epigraph LP ``min t`` s.t. ``|p(x) - f(x)| <= t`` on every grid point.

    Solved by constraint generation: the LP runs on the rows of an active
    set that starts at ``seeds``, then every grid point whose error exceeds
    the LP level by more than 1e-12 relative joins the set, until none
    does.  Each round adds a point of a finite grid, so the loop ends; each
    subset LP relaxes the full one and the accepted solution is feasible
    for it, so the result is the full-grid optimum.

    Each LP goes to HiGHS's interior-point method (with crossover) first:
    the dual simplex stops up to ~1e-7 above the optimum, which is 1e-3
    relative at delta ~ 1e-4.  Near and past degree ~80 the Chebyshev
    columns on the hard spectra are numerically rank deficient and either
    method can stop without a solution on some LPs, so an LP that the
    interior-point method fails is handed to the dual simplex.

    Returns the coefficients, ``|p - f|`` on the whole grid and the level.
    """
    ncols = degree + 1
    phi = chebyshev_columns(grid, hull, ncols)
    cost = np.zeros(ncols + 1)
    cost[ncols] = 1.0
    bounds = [(None, None)] * ncols + [(0.0, None)]

    active = np.zeros(grid.size, dtype=bool)
    active[seeds] = True
    while True:
        rows, rhs = phi[active], values[active]
        a_ub = np.zeros((2 * rhs.size, ncols + 1))
        a_ub[:rhs.size, :ncols] = rows
        a_ub[rhs.size:, :ncols] = -rows
        a_ub[:, ncols] = -1.0
        b_ub = np.concatenate([rhs, -rhs])
        for method in ("highs-ipm", "highs-ds"):
            result = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method=method)
            if result.success:
                break
        else:
            raise SolverFailureError(f"minimax LP failed: {result.message}")
        coeffs, level = result.x[:ncols], result.x[ncols]
        err = np.abs(phi @ coeffs - values)
        violated = ~active & (err > level * (1.0 + 1e-12))
        if not violated.any():
            return coeffs, err, level
        active |= violated


def _interval_seeds(domain):
    """Grid indices of each interval's endpoints and middle node."""
    m = domain.grid_per_interval
    seeds, start = [], 0
    for lo, hi in domain.intervals:
        if lo == hi:
            seeds.append(start)
            start += 1
        else:
            seeds.extend((start, start + (m - 1) // 2, start + m - 1))
            start += m
    return np.array(seeds)


def _local_extrema(domain, expansion, f, per_interval):
    """Locations of local maxima of |p - f| on a dense per-interval sample."""
    extrema = []
    for lo, hi in domain.intervals:
        if lo == hi:
            continue
        xs = np.linspace(lo, hi, per_interval)
        err = np.abs(expansion.evaluate(xs) - evaluate_scalar(f, xs))
        interior = (err[1:-1] >= err[:-2]) & (err[1:-1] >= err[2:])
        extrema.append(xs[1:-1][interior])
        extrema.append(np.array([lo, hi]))
    if not extrema:
        return np.empty(0)
    return np.concatenate(extrema)


def minimax(f, domain: IntervalUnion, degree):
    """Best (grid) uniform approximation of ``f`` on ``domain``.

    Returns ``(expansion, delta)`` where ``delta`` is the maximum error
    of ``expansion``, measured over the whole post-refinement grid; it is
    never an LP level, so it cannot understate the error.  Both LPs are
    solved by constraint generation on the full grid, the exchange
    re-solve starting from the base solution's near-binding points and the
    new extrema.
    """
    if degree < 0:
        raise StructuralError("degree must be nonnegative")
    if degree > DEGREE_CAP:
        raise CapacityError(f"minimax degree capped at {DEGREE_CAP}, got {degree}")

    hull = domain.hull
    if hull[0] == hull[1]:
        # single point: any constant through the value is optimal
        value = float(evaluate_scalar(f, np.array([hull[0]]))[0])
        lo, hi = hull[0] - 0.5, hull[0] + 0.5
        coeffs = np.zeros(degree + 1)
        coeffs[0] = value
        return ChebyshevExpansion((lo, hi), coeffs), 0.0

    base = domain.grid()
    values = evaluate_scalar(f, base)
    coeffs, err, level = _solve_epigraph(
        base, values, hull, degree, _interval_seeds(domain)
    )
    expansion = ChebyshevExpansion(hull, coeffs)

    dense = max(_REFINE_FACTOR * domain.grid_per_interval, 32)
    extra = _local_extrema(domain, expansion, f, dense)
    if extra.size:
        grid = np.unique(np.concatenate([base, extra]))
        near = base[err >= level * (1.0 - 1e-6)]
        seeds = np.searchsorted(grid, np.concatenate([near, extra]))
        coeffs, _, _ = _solve_epigraph(
            grid, evaluate_scalar(f, grid), hull, degree, seeds
        )
        expansion = ChebyshevExpansion(hull, coeffs)
    else:
        grid = base

    delta = float(np.max(np.abs(expansion.evaluate(grid) - evaluate_scalar(f, grid))))
    return expansion, delta


def error_curve(f, domain: IntervalUnion, target, k_max):
    """Minimax errors at degrees 0, 1, ... up to the first meeting ``target``.

    Ends at ``k_max`` if none does; raises where the curve increases, which
    the exchange-refined deltas never do.
    """
    curve = []
    for degree in range(0, k_max + 1):
        _, delta = minimax(f, domain, degree)
        if curve and not delta <= curve[-1] * (1.0 + 1e-9) + 1e-12:
            raise SolverFailureError(
                f"minimax error increased from {curve[-1]} to {delta} "
                f"at degree {degree}"
            )
        curve.append(delta)
        if delta <= target:
            break
    return curve


def min_degree_for(f, domain: IntervalUnion, target, k_max):
    """Smallest degree (at most ``k_max``) whose minimax error meets ``target``.

    The end of :func:`error_curve`'s scan, or ``None`` if it never meets it.
    """
    if target <= 0:
        raise DomainError("target error must be positive")
    if k_max < 1:
        raise StructuralError("k_max must be at least 1")
    curve = error_curve(f, domain, target, k_max)
    return len(curve) - 1 if curve[-1] <= target else None
