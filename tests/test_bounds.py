"""Decision-polynomial, bound, and fixed-point tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from espd import (
    ComponentParams,
    DetectorPerformance,
    LevelConfig,
    PreconditionError,
    dcr_estimate,
    dcr_upper_bound,
    de_gain,
    de_lower_bound,
    decision_poly,
    find_fixed_points,
    level_map,
)
from espd.bounds import GRID_MAX


class TestDecisionPoly:
    def test_zero_argument_higher_threshold(self):
        assert decision_poly(0.7, 5, 2, 0.0) == 0.0
        assert decision_poly(0.7, 5, 5, 0.0) == 0.0

    def test_zero_argument_threshold_one(self):
        assert decision_poly(0.7, 5, 1, 0.0) == 0.7

    @pytest.mark.parametrize("a", [float("nan"), float("inf")])
    def test_non_finite_weight_rejected(self, a):
        with pytest.raises(ValueError, match="a must be finite"):
            decision_poly(a, 4, 2, 0.3)

    @pytest.mark.parametrize("a", ["1", True, None, 1j])
    def test_non_numeric_weight_rejected(self, a):
        with pytest.raises(ValueError, match="a must be a number"):
            decision_poly(a, 4, 2, 0.3)

    @pytest.mark.parametrize(
        "n,k,field",
        [(True, True, "n"), (2.5, 2, "n"), ("3", 2, "n"), (0, 1, "n"), (65, 2, "n"),
         (4, True, "k"), (4, 2.5, "k"), (4, "3", "k"), (4, 0, "k"), (4, 5, "k")],
    )
    def test_counts_must_be_integers_in_range(self, n, k, field):
        # True would otherwise pass as n = k = 1 (decision_poly(0.5, True, True, 0.3) == 0.65);
        # every bound checks the counts before it does arithmetic with them
        for call in (
            lambda: decision_poly(0.5, n, k, 0.3),
            lambda: dcr_upper_bound(1e-3, 1e-3, n, k),
            lambda: dcr_estimate(1e-3, 1e-3, n, k),
            lambda: de_lower_bound(0.5, 0.9, 0.9, n, k),
            lambda: de_gain(0.5, 0.9, 0.9, n, k),
        ):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                call()

    def test_monotone_on_grid(self):
        a, n, k = 0.5, 6, 3
        hi = (k - 1) / n
        xs = [hi * i / 999 for i in range(1000)]
        vals = [decision_poly(a, n, k, x) for x in xs]
        for lo, hi_v in zip(vals, vals[1:]):
            assert hi_v >= lo - 1e-12

    @given(
        a=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
        n=st.integers(min_value=2, max_value=30),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_randomized(self, a, n, data):
        k = data.draw(st.integers(min_value=2, max_value=n))
        hi = (k - 1) / n
        xs = [hi * i / 999 for i in range(1000)]
        vals = [decision_poly(a, n, k, x) for x in xs]
        for lo, hi_v in zip(vals, vals[1:]):
            assert hi_v >= lo - 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            decision_poly(-0.1, 5, 2, 0.5)
        with pytest.raises(ValueError):
            decision_poly(0.5, 5, 6, 0.5)
        with pytest.raises(ValueError):
            decision_poly(0.5, 5, 2, 1.5)


class TestDcrUpperBound:
    def test_zero_noise(self):
        assert dcr_upper_bound(0.0, 0.0, 4, 2) == 0.0

    def test_definitional_identity(self):
        d_s, Q, n, k = 1e-2, 2e-3, 4, 2
        assert dcr_upper_bound(d_s, Q, n, k) == decision_poly(d_s, n, k, Q + d_s)

    def test_precondition_enforced(self):
        # k - 1 = 0 < n * (Q + d) for any positive noise
        with pytest.raises(PreconditionError):
            dcr_upper_bound(1e-2, 2e-3, 4, 1)

    def test_bounds_exact_dcr(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 300:
            eta, d, p, P = rng.uniform(0, 1, 4)
            Q = rng.uniform(0, 0.2)
            n = int(rng.integers(1, 9))
            k = int(rng.integers(1, n + 1))
            if Q + d > 1 or k - 1 < n * (Q + d):
                continue
            bound = dcr_upper_bound(d, Q, n, k)
            exact = level_map(
                DetectorPerformance(eta, d), ComponentParams(p, P, Q), LevelConfig(n, k)
            ).dcr
            assert bound >= exact - 1e-15
            checked += 1


class TestDcrEstimate:
    def test_zero_noise(self):
        assert dcr_estimate(0.0, 0.0, 4, 2) == 0.0

    @pytest.mark.parametrize(
        "d_s,Q,match",
        [(0.1, 1.5, "Q must be in"), (0.6, -0.5, "Q must be in"),
         (0.1, "0.1", "Q must be a number"), (True, 0.1, "d_s must be a number"),
         (0.6, 0.5, r"Q \+ d_s must be <= 1")],
    )
    def test_noise_inputs_checked(self, d_s, Q, match):
        # the estimate and the bound share one check of (d_s, Q)
        for bound in (dcr_estimate, dcr_upper_bound):
            with pytest.raises(ValueError, match=match):
                bound(d_s, Q, 4, 2)

    def test_threshold_one_closed_form(self):
        d_s, Q, n = 1e-3, 2e-3, 5
        assert dcr_estimate(d_s, Q, n, 1) == pytest.approx(
            d_s + n * (Q + d_s), abs=1e-15
        )

    def test_tracks_bound_in_small_probability_regime(self):
        d_s, Q, n, k = 1e-4, 2e-3, 6, 3
        est = dcr_estimate(d_s, Q, n, k)
        bound = dcr_upper_bound(d_s, Q, n, k)
        assert bound / 2 <= est <= bound * 2


class TestDeLowerBound:
    def test_dead_seed(self):
        assert de_lower_bound(0.0, 0.9, 0.9, 4, 2) == 0.0

    def test_perfect_limit(self):
        assert de_lower_bound(1.0, 1.0, 1.0, 4, 1) == 1.0

    def test_below_exact_de_across_dark_counts(self):
        lb = de_lower_bound(0.59, 0.98, 0.97, 4, 1)
        for d in np.linspace(0.0, 0.2, 21):
            exact = level_map(
                DetectorPerformance(0.59, float(d)),
                ComponentParams(0.98, 0.97, 0.002),
                LevelConfig(4, 1),
            ).eta
            assert lb <= exact + 1e-13


class TestDeGain:
    def test_definitional_identity(self):
        for x in np.linspace(0.0, 1.0, 41):
            x = float(x)
            survive = 0.98**4 * decision_poly(x, 4, 2, 0.97 * x)
            assert de_lower_bound(x, 0.98, 0.97, 4, 2) == survive
            assert de_gain(x, 0.98, 0.97, 4, 2) == survive - x

    def test_origin_is_root(self):
        assert de_gain(0.0, 0.9, 0.9, 4, 2) == 0.0
        assert de_gain(0.0, 0.9, 0.9, 4, 1) == 0.0

    def test_lossless_threshold_one_closed_form(self):
        n = 5
        for x in np.linspace(0.0, 1.0, 101):
            x = float(x)
            expected = (1 - x) * (1 - (1 - x) ** n)
            assert de_gain(x, 1.0, 1.0, n, 1) == pytest.approx(expected, abs=1e-12)
            assert de_gain(x, 1.0, 1.0, n, 1) >= -1e-15


class TestFindFixedPoints:
    def test_lossless_threshold_one_root_at_unity(self):
        report = find_fixed_points(1.0, 1.0, 5, 1, grid=1000)
        assert report.roots == (1.0,)
        assert report.gain_positive_interval is not None

    def test_zero_transmission_no_roots(self):
        report = find_fixed_points(0.0, 0.9, 4, 2, grid=1000)
        assert report.roots == ()
        assert report.gain_positive_interval is None

    def test_reference_config_root_location(self):
        report = find_fixed_points(0.98, 0.97, 4, 2, grid=10000)
        assert any(0.9 < r < 1.0 for r in report.roots)
        for r in report.roots:
            assert abs(de_gain(r, 0.98, 0.97, 4, 2)) <= 1e-10

    def test_roots_sorted_and_deduplicated(self):
        report = find_fixed_points(0.98, 0.97, 4, 2, grid=10000)
        assert list(report.roots) == sorted(report.roots)
        for a, b in zip(report.roots, report.roots[1:]):
            assert b - a > 1e-9

    def test_grid_validated(self):
        with pytest.raises(ValueError, match="grid"):
            find_fixed_points(0.9, 0.9, 4, 2, grid=50)
        # the scan's work is bounded: one gain evaluation per grid point
        for bad in (GRID_MAX + 1, 150.5):
            with pytest.raises(ValueError, match="grid"):
                find_fixed_points(0.9, 0.9, 4, 2, grid=bad)
