"""Oracle tests: enumeration vs. closed form, Monte Carlo determinism."""

import math

import numpy as np
import pytest

from espd import (
    ComponentParams,
    DetectorPerformance,
    LevelConfig,
    enumerate_level,
    level_map,
    mc_level,
    oracle_report,
)

BASELINE = ComponentParams(p=0.98, P_act=0.97, Q_err=0.002)


class TestEnumeration:
    def test_vacuum_seed(self):
        assert enumerate_level(DetectorPerformance(0, 0), BASELINE, LevelConfig(4, 2)) == (
            0.0,
            0.0,
        )

    def test_deterministic_cascade(self):
        det = DetectorPerformance(1.0, 0.0)
        params = ComponentParams(1.0, 1.0, 0.0)
        assert enumerate_level(det, params, LevelConfig(3, 1)) == (1.0, 0.0)

    def test_matches_closed_form_reference_point(self):
        det = DetectorPerformance(0.59, 1e-2)
        cfg = LevelConfig(4, 1)
        closed = level_map(det, BASELINE, cfg)
        de, dcr = enumerate_level(det, BASELINE, cfg)
        assert abs(de - closed.eta) <= 1e-12
        assert abs(dcr - closed.dcr) <= 1e-12

    def test_matches_closed_form_randomized(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            eta, d, p, P, Q = rng.uniform(0, 1, 5)
            n = int(rng.integers(1, 11))
            k = int(rng.integers(1, n + 1))
            det = DetectorPerformance(eta, d)
            params = ComponentParams(p, P, Q)
            cfg = LevelConfig(n, k)
            closed = level_map(det, params, cfg)
            de, dcr = enumerate_level(det, params, cfg)
            assert abs(de - closed.eta) <= 1e-12
            assert abs(dcr - closed.dcr) <= 1e-12

    def test_size_cap(self):
        with pytest.raises(ValueError, match="n <= 16"):
            enumerate_level(DetectorPerformance(0.5, 0.0), BASELINE, LevelConfig(17, 1))


class TestMonteCarlo:
    def test_deterministic_cascade_exact(self):
        det = DetectorPerformance(1.0, 0.0)
        params = ComponentParams(1.0, 1.0, 0.0)
        de, dcr, se_de, se_dcr = mc_level(det, params, LevelConfig(3, 1), 1000, 7)
        assert (de, dcr) == (1.0, 0.0)
        assert (se_de, se_dcr) == (0.0, 0.0)

    def test_repeat_runs_bit_identical(self):
        det = DetectorPerformance(0.59, 1e-2)
        cfg = LevelConfig(4, 1)
        a = mc_level(det, BASELINE, cfg, 200_000, 42)
        b = mc_level(det, BASELINE, cfg, 200_000, 42)
        assert a == b

    def test_thread_count_does_not_change_tallies(self):
        det = DetectorPerformance(0.59, 1e-2)
        cfg = LevelConfig(4, 1)
        a = mc_level(det, BASELINE, cfg, 200_000, 42, threads=1)
        b = mc_level(det, BASELINE, cfg, 200_000, 42, threads=4)
        assert a == b

    def test_reference_point_within_four_stderr(self):
        det = DetectorPerformance(0.59, 1e-2)
        de, _, se_de, _ = mc_level(det, BASELINE, LevelConfig(4, 1), 1_000_000, 3)
        assert abs(de - 0.974) <= 4 * max(se_de, 1e-6)

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            mc_level(DetectorPerformance(0.5, 0.0), BASELINE, LevelConfig(3, 1), 0, 1)

    def test_agrees_with_enumeration(self):
        rng = np.random.default_rng(17)
        trials = 100_000
        bad = 0
        for _ in range(40):
            eta, d, p, P, Q = rng.uniform(0, 1, 5)
            n = int(rng.integers(1, 11))
            k = int(rng.integers(1, n + 1))
            det = DetectorPerformance(eta, d)
            params = ComponentParams(p, P, Q)
            cfg = LevelConfig(n, k)
            e_de, e_dcr = enumerate_level(det, params, cfg)
            m_de, m_dcr, s_de, s_dcr = mc_level(
                det, params, cfg, trials, int(rng.integers(0, 2**63))
            )
            band_de = 5 * max(s_de, math.sqrt(e_de * (1 - e_de) / trials))
            band_dcr = 5 * max(s_dcr, math.sqrt(e_dcr * (1 - e_dcr) / trials))
            if abs(m_de - e_de) > band_de or abs(m_dcr - e_dcr) > band_dcr:
                bad += 1
        assert bad == 0


class TestOracleReport:
    def test_derived_fields(self):
        det = DetectorPerformance(0.59, 1e-2)
        rep = oracle_report(det, BASELINE, LevelConfig(4, 1), 100_000, 42)
        assert rep.enum_abs_err_de == abs(rep.closed_de - rep.enum_de)
        assert rep.enum_abs_err_dcr == abs(rep.closed_dcr - rep.enum_dcr)
        assert rep.mc_stderr_de == pytest.approx(
            math.sqrt(rep.mc_de * (1 - rep.mc_de) / rep.trials), abs=1e-15
        )
        assert rep.trials == 100_000
        assert rep.seed == 42
        assert rep.enum_abs_err_de <= 1e-12

    def test_vacuum_seed_all_zero(self):
        rep = oracle_report(DetectorPerformance(0, 0), BASELINE, LevelConfig(3, 2), 1000, 9)
        assert (
            rep.closed_de,
            rep.closed_dcr,
            rep.enum_de,
            rep.enum_dcr,
            rep.mc_de,
            rep.mc_dcr,
        ) == (0.0,) * 6

    def test_size_cap_propagates(self):
        with pytest.raises(ValueError, match="n <= 16"):
            oracle_report(
                DetectorPerformance(0.5, 0.0), BASELINE, LevelConfig(17, 1), 1000, 1
            )
