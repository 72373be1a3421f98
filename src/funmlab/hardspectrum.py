"""Hard eigenvalue placements for which stable 1/x approximation is slow.

The construction places ``z`` evenly spaced eigenvalues in each dyadic
interval ``[2^-i, 2^-(i-1)]``.  Interpolating 1/x at the points needs
degree at most their count, ``num_buckets * z``, which is polylog(kappa);
polynomials constrained in small intervals around every eigenvalue need
degree Omega(kappa^(1/5)) when ``meets_potential_requirement`` holds.
That gap is asymptotic: at kappa <= 256 the minimal degrees for a common
target are close (45 at the points against 48 on the eta = 1e-4
intervals at kappa = 256, target 1/6).  ``potential_check`` evaluates the
weighted log-potential integral whose lower bound drives the separation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError, StructuralError
from .functions import inverse_function
from .minimax import IntervalUnion, minimax
from .operators import SymmetricOperator

DEFAULT_Z_CAP = 60
_GAUSS_NODES = 64


@dataclass(frozen=True)
class HardSpectrum:
    """Eigenvalues, their dyadic bucket indices, and the eta-intervals."""

    kappa: float
    eta: float
    z: int
    z_uncapped: int
    num_buckets: int
    eigenvalues: np.ndarray     # ascending
    bucket_index: np.ndarray    # dyadic index i per eigenvalue, ascending order
    intervals: IntervalUnion

    @property
    def z_was_capped(self):
        return self.z < self.z_uncapped

    @property
    def meets_potential_requirement(self):
        """True when ``eta <= 1/(20 kappa^2)``, the hypothesis under which
        the potential integral is guaranteed to stay above ``-377 eta z``."""
        return self.eta <= 1.0 / (20.0 * self.kappa**2)

    def operator(self) -> SymmetricOperator:
        return SymmetricOperator.from_diagonal(self.eigenvalues)


def hard_spectrum(kappa, eta, z_cap=DEFAULT_Z_CAP) -> HardSpectrum:
    """Construct the hard spectrum for condition number ``kappa``.

    ``eta`` must keep the intervals pairwise disjoint (below half the
    minimal eigenvalue gap); the stronger ``eta <= 1/(20 kappa^2)``
    needed by the potential-function guarantee is recorded on the result
    as ``meets_potential_requirement``.  ``z_cap`` limits the per-bucket
    eigenvalue count for tractability; a capped run is flagged so it is
    never mistaken for the full construction.
    """
    if kappa < 2:
        raise DomainError(f"kappa must be at least 2, got {kappa}")
    if z_cap < 1:
        raise StructuralError("z_cap must be at least 1")
    if eta <= 0.0:
        raise DomainError(
            f"eta must be positive (and at most 1/(20 kappa^2) = "
            f"{1.0 / (20.0 * kappa**2)!r} for the lower-bound guarantee), "
            f"got {eta!r}"
        )

    num_buckets = int(math.floor(math.log2(kappa)))
    z_uncapped = int(math.ceil(math.log(1.0 / eta)))
    z = min(z_uncapped, z_cap)

    min_gap = 1.0 / (z * 2.0**num_buckets)
    if 2.0 * eta >= min_gap:
        raise DomainError(
            f"eta = {eta!r} is out of range: intervals of radius eta overlap "
            f"(need eta < {min_gap / 2.0!r}; the potential-function bound "
            f"additionally needs eta <= 1/(20 kappa^2) = "
            f"{1.0 / (20.0 * kappa**2)!r})"
        )

    eigenvalues = []
    buckets = []
    for i in range(1, num_buckets + 1):
        base = 2.0 ** (-i)
        for j in range(1, z + 1):
            eigenvalues.append(base + j / (z * 2.0**i))
            buckets.append(i)
    eigenvalues = np.asarray(eigenvalues)
    buckets = np.asarray(buckets)
    order = np.argsort(eigenvalues)
    eigenvalues = eigenvalues[order]
    buckets = buckets[order]

    intervals = IntervalUnion(tuple((lam - eta, lam + eta) for lam in eigenvalues))
    return HardSpectrum(
        kappa=float(kappa),
        eta=float(eta),
        z=z,
        z_uncapped=z_uncapped,
        num_buckets=num_buckets,
        eigenvalues=eigenvalues,
        bucket_index=buckets,
        intervals=intervals,
    )


def delta_bar_probe(spec: HardSpectrum, k) -> float:
    """Best error of a degree-(k-1) polynomial against 1/x on the intervals."""
    if k < 1:
        raise StructuralError(f"k must be at least 1, got {k}")
    _, delta = minimax(inverse_function(), spec.intervals, k - 1)
    return delta


def log_kernel_integral(lo, hi, r):
    """Exact ``int_lo^hi ln|1 - x/r| dx`` via the closed-form antiderivative.

    Valid whether or not ``r`` lies inside the interval; the logarithmic
    singularity is integrable and ``t ln|t| -> 0`` as ``t -> 0``.
    """

    def phi(t):
        return t * math.log(abs(t)) - t if t != 0.0 else 0.0

    return phi(hi - r) - phi(lo - r) - (hi - lo) * math.log(r)


def potential_pieces(spec: HardSpectrum, r, c) -> np.ndarray:
    """Per-interval values of ``int w(x) ln|1 - x/r| dx`` with ``w = 2^{ic}``.

    Pieces within one interval-width of ``r`` use the closed form; far
    pieces use 64-node Gauss-Legendre quadrature, which is exact to
    machine precision at that separation.
    """
    if not 1.0 / spec.kappa <= r <= 1.0 + spec.eta:
        raise DomainError(
            f"r must lie in [1/kappa, 1 + eta], got {r!r}"
        )
    if not 0.2 <= c <= 0.5:
        raise DomainError(f"weight exponent c must lie in [1/5, 1/2], got {c}")

    nodes, weights = leggauss(_GAUSS_NODES)
    out = np.empty(spec.eigenvalues.size)
    for idx, (interval, bucket) in enumerate(
        zip(spec.intervals.intervals, spec.bucket_index)
    ):
        lo, hi = interval
        width = hi - lo
        distance = max(lo - r, r - hi, 0.0)
        if distance < width:
            integral = log_kernel_integral(lo, hi, r)
        else:
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            x = mid + half * nodes
            integral = half * float(weights @ np.log(np.abs(1.0 - x / r)))
        out[idx] = 2.0 ** (bucket * c) * integral
    return out


def potential_check(spec: HardSpectrum, r, c) -> float:
    """Total weighted log-potential at root location ``r``.

    The construction guarantees this is bounded below by ``-377 eta z``
    for every admissible ``r``; the acceptance suite sweeps ``r`` to
    verify exactly that inequality.
    """
    return float(np.sum(potential_pieces(spec, r, c)))
