"""Shared, cached computations used by more than one test module."""

from functools import lru_cache

import pytest

from funmlab import hard_spectrum, min_degree_for
from funmlab.functions import inverse_function


@lru_cache(maxsize=None)
def _interval_min_degree(kappa):
    spec = hard_spectrum(kappa, 1e-4)
    return min_degree_for(
        inverse_function(), spec.intervals, target=1.0 / 6.0, k_max=200
    )


@pytest.fixture
def interval_min_degree():
    """Minimal degree for 1/x to within 1/6 on the eta = 1e-4 hard spectrum.

    The kappa scan behind it costs tens of seconds and is shared by
    acceptance criterion 8 and the hard-spectrum growth test, so each
    kappa is scanned once per test run.  The fixture hands out the cached
    function rather than its values so that the first caller pays for the
    scan inside its own timed region.
    """
    return _interval_min_degree
