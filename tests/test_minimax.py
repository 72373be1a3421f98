"""Grid-LP minimax oracle: worked optima, equioscillation, monotonicity."""

import importlib

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval, chebvander
from scipy.optimize import linprog

from funmlab import (
    CapacityError,
    DomainError,
    IntervalUnion,
    StructuralError,
    hard_spectrum,
    min_degree_for,
    minimax,
)
from funmlab.chebyshev import to_unit
from funmlab.functions import inverse_function

INV = inverse_function()


class TestIntervalUnion:
    def test_rejects_overlap(self):
        with pytest.raises(StructuralError):
            IntervalUnion(((0.0, 1.0), (0.5, 2.0)))

    def test_rejects_unsorted(self):
        with pytest.raises(StructuralError):
            IntervalUnion(((1.0, 2.0), (0.0, 0.5)))

    def test_degenerate_points_allowed(self):
        u = IntervalUnion.from_points([1.0, 2.0, 3.0])
        assert u.grid().tolist() == [1.0, 2.0, 3.0]

    def test_grid_includes_endpoints(self):
        u = IntervalUnion(((2.0, 4.0),), grid_per_interval=9)
        g = u.grid()
        assert g[0] == 2.0 and g[-1] == 4.0 and g.size == 9
        assert np.all(np.diff(g) > 0)

    def test_hull(self):
        u = IntervalUnion(((0.0, 1.0), (3.0, 4.0)))
        assert u.hull == (0.0, 4.0)


class TestMinimax:
    def test_best_constant_for_inverse(self):
        # 1/x spans [1, 2] on [0.5, 1]; midpoint constant 1.5, error 0.5
        expansion, delta = minimax(INV, IntervalUnion.single(0.5, 1.0), 0)
        assert expansion.coeffs[0] == pytest.approx(1.5, abs=1e-9)
        assert delta == pytest.approx(0.5, abs=1e-9)

    def test_exact_polynomial_representation(self):
        rng = np.random.default_rng(0)
        from funmlab import ChebyshevExpansion

        target = ChebyshevExpansion((-1.0, 2.0), rng.uniform(-1, 1, 6))
        _, delta = minimax(target.evaluate, IntervalUnion.single(-1.0, 2.0), 5)
        assert delta <= 1e-10

    def test_line_through_two_tiny_intervals(self):
        # interpolating 1/x at ~{1, 2} gives p(x) = 1.5 - 0.5 x
        radius = 1e-9
        domain = IntervalUnion.from_points([1.0, 2.0], radius=radius)
        expansion, delta = minimax(INV, domain, 1)
        assert delta <= 1e-6
        assert expansion.evaluate(1.0) == pytest.approx(1.0, abs=1e-6)
        assert expansion.evaluate(2.0) == pytest.approx(0.5, abs=1e-6)

    def test_equioscillation_witness(self):
        degree = 4
        domain = IntervalUnion(((0.5, 2.0),), grid_per_interval=128)
        expansion, delta = minimax(INV, domain, degree)
        grid = IntervalUnion(domain.intervals, grid_per_interval=1024).grid()
        err = expansion.evaluate(grid) - INV.evaluate(grid)
        near_extreme = np.abs(np.abs(err) - delta) <= 1e-6
        assert np.count_nonzero(near_extreme) >= degree + 2

    def test_monotone_in_degree(self):
        domain = IntervalUnion.single(0.5, 2.0)
        previous = np.inf
        for degree in range(9):
            _, delta = minimax(INV, domain, degree)
            assert delta <= previous + 1e-12
            previous = delta

    def test_monotone_in_domain(self):
        big = IntervalUnion.single(0.2, 2.0)
        small = IntervalUnion(((0.3, 0.8), (1.2, 1.9)))
        for degree in (0, 2, 5):
            _, delta_big = minimax(INV, big, degree)
            _, delta_small = minimax(INV, small, degree)
            assert delta_small <= delta_big + 1e-12

    def test_degree_cap(self):
        with pytest.raises(CapacityError):
            minimax(INV, IntervalUnion.single(0.5, 1.0), 300)

    def test_grid_doubling_stability(self):
        # default grid density leaves < 1% drift when doubled
        for m in (64,):
            base = IntervalUnion(((0.5, 2.0),), grid_per_interval=m)
            doubled = IntervalUnion(((0.5, 2.0),), grid_per_interval=2 * m)
            _, d1 = minimax(INV, base, 6)
            _, d2 = minimax(INV, doubled, 6)
            assert abs(d1 - d2) <= 0.01 * d2


class TestMinDegree:
    def test_constant_function_needs_degree_zero(self):
        f = lambda x: np.full_like(x, 3.0)
        domain = IntervalUnion.single(0.0, 1.0)
        assert min_degree_for(f, domain, target=0.1, k_max=5) == 0

    def test_not_found_sentinel(self):
        domain = IntervalUnion.single(0.01, 1.0)
        assert min_degree_for(INV, domain, target=1e-12, k_max=3) is None

    def test_sqrt_kappa_growth(self):
        # degree for fixed accuracy on [1/kappa, 1] scales like sqrt(kappa)
        ratios = []
        for kappa in (10.0, 40.0, 160.0):
            domain = IntervalUnion.single(1.0 / kappa, 1.0)
            degree = min_degree_for(INV, domain, target=1.0 / 6.0, k_max=80)
            assert degree is not None
            ratios.append(degree / np.sqrt(kappa))
        assert max(ratios) <= 3.0 * min(ratios)

    def test_nested_domain_needs_no_more_degree(self):
        wide = IntervalUnion.single(0.1, 1.0)
        narrow = IntervalUnion(((0.1, 0.4), (0.7, 1.0)))
        d_wide = min_degree_for(INV, wide, target=0.05, k_max=40)
        d_narrow = min_degree_for(INV, narrow, target=0.05, k_max=40)
        assert d_narrow is not None and d_wide is not None
        assert d_narrow <= d_wide

    def test_validates_target(self):
        with pytest.raises(DomainError):
            min_degree_for(INV, IntervalUnion.single(0.5, 1.0), target=0.0, k_max=3)


def _full_grid_lp(grid, values, hull, degree):
    """The epigraph LP on every point of ``grid``, built from numpy's
    Chebyshev Vandermonde matrix and solved by HiGHS's dual simplex with
    tight tolerances."""
    ncols = degree + 1
    phi = chebvander(to_unit(grid, hull), degree)
    a_ub = np.block([[phi, -np.ones((grid.size, 1))],
                     [-phi, -np.ones((grid.size, 1))]])
    result = linprog(
        np.append(np.zeros(ncols), 1.0), A_ub=a_ub,
        b_ub=np.concatenate([values, -values]),
        bounds=[(None, None)] * ncols + [(0.0, None)], method="highs-ds",
        options={"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10},
    )
    assert result.success, result.message
    return result.x[:ncols]


def full_grid_delta(f, domain, degree):
    """Oracle for ``minimax``'s delta: the full-grid LP, then the full-grid
    LP again with the local maxima of its error on an 8x denser uniform
    sample adjoined, then the measured sup on that refined grid."""
    hull = domain.hull
    grid = domain.grid()
    coeffs = _full_grid_lp(grid, f(grid), hull, degree)
    extra = []
    for lo, hi in domain.intervals:
        if lo == hi:
            continue
        xs = np.linspace(lo, hi, max(8 * domain.grid_per_interval, 32))
        err = np.abs(chebval(to_unit(xs, hull), coeffs) - f(xs))
        interior = (err[1:-1] >= err[:-2]) & (err[1:-1] >= err[2:])
        extra += [xs[1:-1][interior], [lo, hi]]
    if extra:
        grid = np.unique(np.concatenate([grid, *extra]))
        coeffs = _full_grid_lp(grid, f(grid), hull, degree)
    delta = float(np.max(np.abs(chebval(to_unit(grid, hull), coeffs) - f(grid))))
    return delta, float(np.max(np.abs(f(grid))))


class TestConstraintGeneration:
    """``minimax`` solves its LPs on an active set of grid points; the
    answer must be the full-grid LP's."""

    @staticmethod
    def assert_matches_oracle(domain, degree):
        _, delta = minimax(INV, domain, degree)
        reference, scale = full_grid_delta(INV.evaluate, domain, degree)
        # 1e-6 relative; the absolute floor covers deltas at the LP's
        # resolution (delta ~ 1e-10 on kappa = 16 at degree 48)
        assert abs(delta - reference) <= 1e-6 * reference + 1e-10 * scale, (
            delta, reference)

    @pytest.mark.parametrize("kappa", [16.0, 64.0, 256.0])
    @pytest.mark.parametrize("degree", [0, 5, 20, 48])
    def test_hard_spectra(self, kappa, degree):
        self.assert_matches_oracle(hard_spectrum(kappa, 1e-4).intervals, degree)

    def test_single_interval(self):
        self.assert_matches_oracle(IntervalUnion.single(0.5, 2.0), 6)

    def test_points(self):
        domain = IntervalUnion.from_points([0.1, 0.3, 0.5, 0.7, 0.9, 1.0])
        self.assert_matches_oracle(domain, 3)

    def test_passes_few_rows(self, monkeypatch):
        module = importlib.import_module("funmlab.minimax")
        rows = []
        solve = module.linprog

        def counting(*args, **kwargs):
            rows.append(kwargs["A_ub"].shape[0])
            return solve(*args, **kwargs)

        monkeypatch.setattr(module, "linprog", counting)
        domain = hard_spectrum(256.0, 1e-4).intervals
        minimax(INV, domain, 48)
        # the full LP passes two rows per grid point to each of two solves
        full_rows = 2 * 2 * domain.grid().size
        assert sum(rows) < full_rows / 4, (sum(rows), full_rows)

    def test_degree_80_on_kappa_256(self):
        # the Chebyshev columns on this grid have condition ~1e12 here, and
        # the dual simplex fails on the full-grid LP ("Status 0: Not Set")
        domain = hard_spectrum(256.0, 1e-4).intervals
        expansion, delta = minimax(INV, domain, 80)
        _, delta_70 = minimax(INV, domain, 70)
        assert 0.0 < delta < delta_70
        nodes = np.cos(np.linspace(np.pi, 0.0, 4 * domain.grid_per_interval))
        xs = np.concatenate([0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
                             for lo, hi in domain.intervals])
        sampled = np.max(np.abs(expansion.evaluate(xs) - 1.0 / xs))
        assert sampled <= 1.05 * delta
