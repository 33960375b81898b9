"""Tolerable-transmission threshold tests."""

import numpy as np
import pytest

from espd import DetectorPerformance, QkdScenario, gamma_approx, gamma_exact

SCN = QkdScenario(e_th=0.11, e_c=0.02)


class TestGamma:
    def test_no_dark_counts(self):
        det = DetectorPerformance(0.9, 0.0)
        assert gamma_exact(SCN, det) == 0.0
        assert gamma_approx(SCN, det) == 0.0

    def test_degenerate_threshold(self):
        scn = QkdScenario(e_th=0.5, e_c=0.02)
        det = DetectorPerformance(0.9, 1e-6)
        assert gamma_exact(scn, det) == 0.0
        assert gamma_approx(scn, det) == 0.0

    def test_enhanced_detector_reference_point(self):
        scn = QkdScenario(e_th=0.11, e_c=0.02, e=0.11)
        det = DetectorPerformance(0.934, 8.5e-10)
        exact = gamma_exact(scn, det)
        approx = gamma_approx(scn, det)
        direct = (1 - 2 * 0.11) * 8.5e-10 / (
            0.934 * (0.11 - 0.02 + 8.5e-10 * (1 - 2 * 0.11))
        )
        assert exact == pytest.approx(direct, rel=1e-12)
        assert abs(exact - approx) / exact <= 0.01

    def test_linearity_in_dark_count(self):
        a = gamma_approx(SCN, DetectorPerformance(0.9, 1e-6))
        b = gamma_approx(SCN, DetectorPerformance(0.9, 2e-6))
        assert b == pytest.approx(2 * a, rel=1e-12)

    def test_threshold_improvement_ratio(self):
        # Seed detector vs. the level-3 enhanced point: ~2e4 improvement.
        seed = gamma_approx(SCN, DetectorPerformance(0.59, 1e-2))
        enhanced = gamma_approx(SCN, DetectorPerformance(0.936, 8.1e-7))
        assert seed / enhanced == pytest.approx(1.96e4, rel=0.01)


class TestProperties:
    def test_exact_approaches_approx_with_derived_bound(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            e_c = rng.uniform(0.0, 0.2)
            e_th = rng.uniform(e_c + 1e-3, 0.45)
            e = rng.uniform(0.0, 0.5)
            eta = rng.uniform(1e-3, 1.0)
            d = rng.uniform(0.0, 0.05)
            scn = QkdScenario(e_th, e_c, e)
            det = DetectorPerformance(eta, d)
            exact = gamma_exact(scn, det)
            approx = gamma_approx(scn, det)
            bound = d * (1 - 2 * e) / (e_th - e_c)
            if exact > 0:
                assert abs(approx - exact) / exact <= bound * (1 + 1e-9) + 1e-15

    def test_monotone_in_dark_count(self):
        det_grid = [DetectorPerformance(0.8, float(d)) for d in np.linspace(0, 0.05, 30)]
        vals = [gamma_exact(SCN, det) for det in det_grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_monotone_in_efficiency(self):
        det_grid = [
            DetectorPerformance(float(eta), 1e-4) for eta in np.linspace(0.1, 1.0, 30)
        ]
        vals = [gamma_exact(SCN, det) for det in det_grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_nonnegative(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            e_c = rng.uniform(0.0, 0.2)
            e_th = rng.uniform(e_c + 1e-3, 0.5)
            scn = QkdScenario(e_th, e_c)
            det = DetectorPerformance(rng.uniform(1e-3, 1.0), rng.uniform(0.0, 0.1))
            assert gamma_exact(scn, det) >= 0.0
            assert gamma_approx(scn, det) >= 0.0


class TestValidation:
    def test_error_ordering_enforced(self):
        with pytest.raises(ValueError, match="e_c < e_th"):
            QkdScenario(e_th=0.1, e_c=0.2)

    def test_e_range(self):
        with pytest.raises(ValueError, match="e must"):
            QkdScenario(e_th=0.11, e_c=0.02, e=1.5)

    @pytest.mark.parametrize("bad", ["0.1", True, None, 1j])
    @pytest.mark.parametrize("field", ["e_th", "e_c"])
    def test_thresholds_must_be_numbers(self, field, bad):
        values = {"e_th": 0.11, "e_c": 0.02, field: bad}
        with pytest.raises(ValueError, match=f"{field} must be a number"):
            QkdScenario(**values)

    # None is not in the list: it selects the default e = e_th
    @pytest.mark.parametrize("bad", ["0.5", True, float("nan")])
    def test_e_must_be_a_probability(self, bad):
        with pytest.raises(ValueError, match="e must"):
            QkdScenario(e_th=0.11, e_c=0.02, e=bad)

    def test_default_e_is_threshold(self):
        assert QkdScenario(e_th=0.11, e_c=0.02).effective_e == 0.11
        assert QkdScenario(e_th=0.11, e_c=0.02, e=0.3).effective_e == 0.3

    def test_zero_efficiency_rejected(self):
        with pytest.raises(ValueError, match="eta"):
            gamma_exact(SCN, DetectorPerformance(0.0, 1e-6))

    def test_zero_efficiency_rejected_by_approx(self):
        with pytest.raises(ValueError, match="gamma requires eta > 0"):
            gamma_approx(SCN, DetectorPerformance(0.0, 1e-6))

    def test_nonpositive_denominator_rejected(self):
        scn = QkdScenario(e_th=0.11, e_c=0.02, e=1.0)
        with pytest.raises(ValueError, match="denominator"):
            gamma_exact(scn, DetectorPerformance(0.9, 0.5))

    @pytest.mark.parametrize("gamma", [gamma_exact, gamma_approx])
    def test_overflowing_threshold_rejected(self, gamma):
        # 0.78 / (1e-320 * 0.87) overflows to inf
        with pytest.raises(ValueError, match="gamma is not finite"):
            gamma(SCN, DetectorPerformance(1e-320, 1.0))
