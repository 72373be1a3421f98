"""Hard spectrum construction, the delta-bar probe, and potential integrals."""

import numpy as np
import pytest

from funmlab import (
    DomainError,
    IntervalUnion,
    delta_bar_probe,
    hard_spectrum,
    minimax,
    potential_check,
    potential_pieces,
)
from funmlab.hardspectrum import log_kernel_integral
from funmlab.functions import inverse_function

INV = inverse_function()


class TestConstruction:
    def test_kappa_eight_two_per_bucket(self):
        # z capped at 2 reproduces the small worked placement
        spec = hard_spectrum(8.0, 1.0 / 1280.0, z_cap=2)
        np.testing.assert_allclose(
            sorted(spec.eigenvalues), [0.1875, 0.25, 0.375, 0.5, 0.75, 1.0]
        )
        assert spec.z == 2 and spec.z_was_capped

    def test_kappa_two_single_eigenvalue(self):
        spec = hard_spectrum(2.0, 1.0 / 80.0, z_cap=1)
        np.testing.assert_allclose(spec.eigenvalues, [1.0])
        assert spec.num_buckets == 1 and spec.z == 1

    def test_eigenvalues_in_open_interval(self):
        spec = hard_spectrum(8.0, 1.0 / 1280.0)
        assert np.all(spec.eigenvalues > 1.0 / 8.0)
        assert np.all(spec.eigenvalues <= 1.0)
        assert spec.eigenvalues.size == spec.num_buckets * spec.z

    def test_gaps_meet_construction_floor(self):
        spec = hard_spectrum(8.0, 1.0 / 1280.0)
        intervals = spec.intervals.intervals
        gaps = [
            nxt[0] - cur[1] for cur, nxt in zip(intervals, intervals[1:])
        ]
        assert min(gaps) >= 1.0 / (2.0 * spec.z * spec.kappa)

    def test_eta_validation(self):
        with pytest.raises(DomainError, match="20 kappa"):
            hard_spectrum(8.0, 0.5)
        with pytest.raises(DomainError):
            hard_spectrum(8.0, 0.0)
        with pytest.raises(DomainError):
            hard_spectrum(1.5, 1e-6)

    def test_potential_requirement_flag(self):
        assert hard_spectrum(8.0, 1.0 / 1280.0).meets_potential_requirement
        # acceptance probes use larger eta; construction stays valid
        loose = hard_spectrum(64.0, 1e-4)
        assert not loose.meets_potential_requirement

    def test_operator_is_diagonal_with_spectrum(self):
        spec = hard_spectrum(8.0, 1.0 / 1280.0, z_cap=2)
        a = spec.operator()
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(a.to_dense())), np.sort(spec.eigenvalues)
        )


class TestDeltaBarProbe:
    def test_degree_zero_equioscillates_across_range(self):
        spec = hard_spectrum(8.0, 1.0 / 1280.0, z_cap=2)
        delta = delta_bar_probe(spec, 1)
        lo = spec.eigenvalues[0] - spec.eta
        hi = spec.eigenvalues[-1] + spec.eta
        expected = 0.5 * (1.0 / lo - 1.0 / hi)
        assert delta == pytest.approx(expected, rel=1e-6)

    def test_zero_polynomial_baseline(self):
        # p = 0 gives max |1/x| = 1/(lambda_min - eta)
        spec = hard_spectrum(8.0, 1.0 / 1280.0, z_cap=2)
        baseline = 1.0 / (spec.eigenvalues[0] - spec.eta)
        assert delta_bar_probe(spec, 1) <= baseline
        assert baseline >= spec.kappa * 0.5

    def test_intervals_harder_than_points(self):
        spec = hard_spectrum(64.0, 1e-4)
        k = spec.eigenvalues.size  # interpolation-capable degree on points
        delta_intervals = delta_bar_probe(spec, k)
        points = IntervalUnion.from_points(spec.eigenvalues)
        _, delta_points = minimax(INV, points, k - 1)
        assert delta_intervals > delta_points

    def test_interval_min_degree_strictly_above_near_points(
        self, interval_min_degree
    ):
        # same eigenvalues, radius 1e-4 vs 1e-12: nested domains force the
        # wider intervals to need strictly more degree for the 1/6 target.
        # The wide degree is the shared kappa = 64 scan; the scan stops at
        # the first degree that meets the target, so its k_max of 200
        # gives the same answer as a cap of 60 would.
        from funmlab import min_degree_for

        spec = hard_spectrum(64.0, 1e-4)
        wide = interval_min_degree(64.0)
        narrow_domain = IntervalUnion.from_points(
            spec.eigenvalues, radius=1e-12
        )
        narrow = min_degree_for(INV, narrow_domain, target=1.0 / 6.0, k_max=60)
        assert wide is not None and narrow is not None
        assert wide > narrow

    def test_constrained_form_matches_reduction(self):
        # Writing pbar(x) = 1 - x p(x): a degree-(k-1) approximation p of
        # 1/x with error dbar yields |pbar| <= hull_max * dbar on the
        # domain with pbar(0) = 1, and conversely.
        spec = hard_spectrum(8.0, 1.0 / 1280.0, z_cap=4)
        k = 3
        expansion, dbar = minimax(INV, spec.intervals, k - 1)
        grid = spec.intervals.grid(per_interval=256)
        pbar = 1.0 - grid * expansion.evaluate(grid)
        hull_hi = spec.eigenvalues[-1] + spec.eta
        assert np.max(np.abs(pbar)) <= hull_hi * dbar * (1.0 + 1e-9)


class TestGrowthSeparation:
    def test_min_degree_growth_and_point_interpolation(
        self, interval_min_degree
    ):
        # one scan (shared with acceptance criterion 8) feeds three claims:
        # the 1/6 interval degree grows strictly with kappa, its log-log
        # slope stays above the 0.15 floor, and the 1e-6 point degree stays
        # within the point count (the latter checked where float64 can
        # represent the interpolant; at kappa=256 it cannot -- that
        # polynomial peaks near e^240, which is the instability under study)
        from funmlab import min_degree_for

        eta = 1e-4
        interval_degrees = {}
        for kappa in (16.0, 64.0, 256.0):
            spec = hard_spectrum(kappa, eta)
            degree = interval_min_degree(kappa)
            assert degree is not None
            interval_degrees[kappa] = degree
            if kappa in (16.0, 64.0):
                points = IntervalUnion.from_points(spec.eigenvalues)
                point_degree = min_degree_for(
                    INV, points, target=1e-6, k_max=spec.eigenvalues.size
                )
                assert point_degree is not None
                assert point_degree <= spec.eigenvalues.size

        assert (
            interval_degrees[16.0]
            < interval_degrees[64.0]
            < interval_degrees[256.0]
        )
        slope = np.log(interval_degrees[256.0] / interval_degrees[16.0]) / np.log(
            256.0 / 16.0
        )
        assert slope >= 0.15


class TestPotential:
    def test_closed_form_matches_quadrature_far_from_singularity(self):
        from numpy.polynomial.legendre import leggauss

        nodes, weights = leggauss(64)
        lo, hi, r = 0.5, 0.52, 0.9
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        x = mid + half * nodes
        quad = half * float(weights @ np.log(np.abs(1.0 - x / r)))
        assert quad == pytest.approx(log_kernel_integral(lo, hi, r), abs=1e-13)

    def test_high_root_keeps_floor(self):
        spec = hard_spectrum(8.0, 1.0 / 1280.0)
        value = potential_check(spec, 1.0 + spec.eta, 0.2)
        assert value >= -377.0 * spec.eta * spec.z

    def test_low_root_keeps_floor(self):
        spec = hard_spectrum(8.0, 1.0 / 1280.0)
        value = potential_check(spec, 1.0 / 8.0, 0.2)
        assert value >= -377.0 * spec.eta * spec.z

    def test_closest_bucket_analytic_floor(self):
        # integral over the interval containing r is at least
        # 4 * 2^{l c} eta ln(eta)
        spec = hard_spectrum(8.0, 1.0 / 1280.0)
        c = 0.2
        for idx in (0, len(spec.eigenvalues) // 2, len(spec.eigenvalues) - 1):
            lam = spec.eigenvalues[idx]
            bucket = spec.bucket_index[idx]
            pieces = potential_pieces(spec, lam, c)
            floor = 4.0 * 2.0 ** (bucket * c) * spec.eta * np.log(spec.eta)
            assert pieces[idx] >= floor - 1e-6

    def test_r_range_validated(self):
        spec = hard_spectrum(8.0, 1.0 / 1280.0)
        with pytest.raises(DomainError):
            potential_check(spec, 0.01, 0.2)
        with pytest.raises(DomainError):
            potential_check(spec, 0.5, 0.7)

    def test_pieces_sum_to_total(self):
        spec = hard_spectrum(8.0, 1.0 / 1280.0)
        r = 0.3
        assert potential_check(spec, r, 0.25) == pytest.approx(
            float(np.sum(potential_pieces(spec, r, 0.25)))
        )
