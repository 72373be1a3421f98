"""Chebyshev expansions on arbitrary intervals, evaluated by Clenshaw."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np
from numpy.polynomial import chebyshev as npcheb

from .errors import StructuralError


def to_unit(x, interval):
    """Affine map from ``[a, b]`` onto ``[-1, 1]``."""
    a, b = interval
    return (2.0 * np.asarray(x, dtype=float) - (a + b)) / (b - a)


@dataclass(frozen=True)
class ChebyshevExpansion:
    """Coefficients c_i in the basis T_i stretched to ``interval``."""

    interval: Tuple[float, float]
    coeffs: np.ndarray

    def __post_init__(self):
        a, b = self.interval
        if not a < b:
            raise StructuralError("expansion interval must have a < b")
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise StructuralError("coefficients must be a nonempty 1-D array")
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "interval", (float(a), float(b)))

    @property
    def degree(self):
        """Index of the last nonzero coefficient (0 for the zero expansion)."""
        nonzero = np.nonzero(self.coeffs)[0]
        return int(nonzero[-1]) if nonzero.size else 0

    def evaluate(self, x):
        """Clenshaw evaluation."""
        return npcheb.chebval(to_unit(x, self.interval), self.coeffs)

    def __call__(self, x):
        return self.evaluate(x)
