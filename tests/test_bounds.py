"""Decision-polynomial, bound, and fixed-point tests."""

import random
import re

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
from espd import binomial, bounds
from espd.bounds import GRID_MAX

from conftest import traced_peak


def full_table_decision_poly(a, n, k, x):
    """f(x) from a whole pmf row and tail table sharing one pair of power lists."""
    xp, yp = binomial.powers(x, n), binomial.powers(1.0 - x, n)
    tail = binomial.clamp1(binomial.tail_table(n, xp, yp)[k])
    return a * binomial.pmf_row(n, xp, yp)[k - 1] + tail


class TestDecisionPoly:
    def test_matches_full_table_formula_bit_for_bit(self):
        rng = random.Random(2024)
        edges = [0.0, 1.0, 5e-324, 1e-30, 1 - 2**-53]
        for i in range(5000):
            n = rng.randint(1, 64)
            k = rng.randint(1, n)
            a = rng.choice([0.0, rng.random(), rng.uniform(0.0, 2.0)])
            x = rng.choice(edges) if i % 10 == 0 else rng.random() ** rng.choice([1, 5, 20])
            got, want = decision_poly(a, n, k, x), full_table_decision_poly(a, n, k, x)
            assert got.hex() == want.hex(), (a, n, k, x)

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

    def test_step_gain_bisects_to_no_root(self, monkeypatch):
        # A sign change with no zero: bisection narrows the step until the
        # interval collapses, and the tolerance filter drops its midpoint.
        # with p = 1 the scan's gain is the patched polynomial minus x
        monkeypatch.setattr(
            bounds, "_decision_poly", lambda a, *_: a - 1.0 if a < 0.3 else a + 1.0
        )
        report = find_fixed_points(1.0, 0.9, 4, 2)
        assert report.roots == ()
        assert report.gain_positive_interval == (0.3, 1.0)

    @staticmethod
    def multi_pass_scan(p, P, n, k, grid):
        # The scan as it was before it became one pass: gains held in
        # grid-length lists, zeros and sign changes found in separate passes,
        # then the roots sorted, deduplicated and filtered.
        def gain(x):
            return de_gain(x, p, P, n, k)

        def bisect(lo, hi, flo):
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if mid == lo or mid == hi:
                    break
                fm = gain(mid)
                if abs(fm) <= bounds.ROOT_GAIN_TOL:
                    return mid
                if (flo < 0.0) != (fm < 0.0):
                    hi = mid
                else:
                    lo, flo = mid, fm
            return 0.5 * (lo + hi)

        xs = [i / grid for i in range(1, grid + 1)]
        gs = [gain(x) for x in xs]
        roots = [x for x, g in zip(xs, gs) if g == 0.0]
        for i in range(len(xs) - 1):
            if gs[i] * gs[i + 1] < 0.0:
                roots.append(bisect(xs[i], xs[i + 1], gs[i]))
        roots.sort()
        dedup = []
        for r in roots:
            if not dedup or r - dedup[-1] > bounds.ROOT_DEDUP_TOL:
                dedup.append(r)
        dedup = [r for r in dedup if abs(gain(r)) <= bounds.ROOT_GAIN_TOL]
        pos = [x for x, g in zip(xs, gs) if g > 0.0]
        return tuple(dedup), (pos[0], pos[-1]) if pos else None

    def test_one_pass_matches_multi_pass_scan(self):
        # the paper's two queries, an exact zero at a grid point, two roots
        # 3.2e-4 apart just before they merge, then seeded draws of every
        # valid (n, k) up to 12 with p and P ends included
        rng = random.Random(30)
        prob = lambda: rng.choice([0.0, 1.0]) if rng.random() < 0.1 else rng.random()
        cases = [(0.98, 0.97, 4, 2, 10000), (0.98, 0.97, 8, 4, 10000), (1.0, 1.0, 5, 1, 137),
                 (0.886495368404008, 0.97, 4, 2, 1000)]
        for _ in range(300):
            n = rng.randint(1, 12)
            cases.append((prob(), prob(), n, rng.randint(1, n),
                          rng.choice([100, 137, 1000, 2000])))
        with_roots = 0
        for p, P, n, k, grid in cases:
            report = find_fixed_points(p, P, n, k, grid=grid)
            assert tuple(report) == self.multi_pass_scan(p, P, n, k, grid), (p, P, n, k, grid)
            with_roots += bool(report.roots)
        assert with_roots >= 30

    def test_scan_memory_independent_of_grid(self):
        # tracemalloc peak at grid 100,000: 6.71 MiB with the gains held in
        # grid-length lists, 0.00 MiB with one pass holding only the roots
        report, peak = traced_peak(find_fixed_points, 0.98, 0.97, 4, 2, grid=100_000)
        assert report.roots
        assert peak < 2**20

    @pytest.mark.parametrize(
        "p, P, n, k", [(0.98, 0.97, 4, 2), (0.98, 0.97, 8, 4), (1, 0.5, 12, 3)]
    )
    def test_report_is_that_of_de_gain_on_the_grid(self, p, P, n, k):
        report = find_fixed_points(p, P, n, k, grid=2000)
        pos = [x for x in (i / 2000 for i in range(1, 2001)) if de_gain(x, p, P, n, k) > 0]
        assert report.gain_positive_interval == ((pos[0], pos[-1]) if pos else None)
        for r in report.roots:
            assert abs(de_gain(r, p, P, n, k)) <= 1e-10

    @pytest.mark.parametrize(
        "p, P, n, k",
        [(1.5, 2.0, 0, 0), ("0.9", 0.9, 4, 2), (0.9, -0.1, 0, 2), (0.9, 0.9, True, 2),
         (0.9, 0.9, 65, 2), (0.9, 0.9, 4, 5), (0.9, 0.9, 4, 2.0)],
    )
    def test_inputs_checked_as_de_gain_checks_them(self, p, P, n, k):
        with pytest.raises(ValueError) as expected:
            de_gain(0.5, p, P, n, k)
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
            find_fixed_points(p, P, n, k)

    def test_grid_validated(self):
        with pytest.raises(ValueError, match="grid"):
            find_fixed_points(0.9, 0.9, 4, 2, grid=50)
        # the scan's work is bounded: one gain evaluation per grid point
        for bad in (GRID_MAX + 1, 150.5):
            with pytest.raises(ValueError, match="grid"):
                find_fixed_points(0.9, 0.9, 4, 2, grid=bad)
