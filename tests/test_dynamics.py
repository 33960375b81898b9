"""Level-map unit tests: frozen examples, algebraic identities, properties.

The brute-force helpers below re-derive vote probabilities by summing over
every detector-outcome vector; they are intentionally independent of the
tail algebra in the package.
"""

import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from espd import (
    MAX_LEVELS,
    ComponentParams,
    ConvergenceRule,
    DetectorPerformance,
    LevelConfig,
    Schedule,
    approx_firing_probs,
    de_loss_case,
    de_survive_case,
    effective_transmission,
    firing_probs,
    iterate_schedule,
    level_map,
)
from espd import _kernels, de_gain, decision_poly
from espd.dynamics import check_int, level_figures
from espd.golden import TABLES, series_trajectory

BASELINE = ComponentParams(p=0.98, P_act=0.97, Q_err=0.002)


def brute_vote(probs, k):
    """P[>= k of the independent detectors fire], by outcome enumeration."""
    total = 0.0
    m = len(probs)
    for mask in range(1 << m):
        pr = 1.0
        cnt = 0
        for j in range(m):
            if (mask >> j) & 1:
                pr *= probs[j]
                cnt += 1
            else:
                pr *= 1.0 - probs[j]
        if cnt >= k:
            total += pr
    return total


def brute_level(det, params, cfg):
    """Full level map by loss-scenario mixture over brute_vote."""
    n, k = cfg.n, cfg.k
    eta, d = det.eta, det.dcr
    p_pos = params.P_act * eta * (1 - d) + d
    q_pos = params.Q_err * eta * (1 - d) + d
    p_sig = eta + (1 - eta) * d
    q_sig = d
    de = 0.0
    w = 1.0
    for i in range(1, n + 1):
        probs = [p_pos] * i + [q_pos] * (n - i) + [q_sig]
        de += w * (1 - params.p) * brute_vote(probs, k)
        w *= params.p
    de += w * brute_vote([p_pos] * n + [p_sig], k)
    dcr = brute_vote([q_pos] * n + [q_sig], k)
    return de, dcr


probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
small_n = st.integers(min_value=1, max_value=8)
# the endpoints, a tiny dark count and the float just below 1 get drawn often
edge_probs = st.sampled_from([0.0, 1e-30, 1.0 - 2**-53, 1.0]) | probs


@st.composite
def model_draws(draw):
    det = DetectorPerformance(draw(probs), draw(probs))
    params = ComponentParams(draw(probs), draw(probs), draw(probs))
    n = draw(small_n)
    k = draw(st.integers(min_value=1, max_value=n))
    return det, params, LevelConfig(n, k)


class TestIntermediates:
    def test_all_zero_input(self):
        assert firing_probs(0, 0, BASELINE.P_act, BASELINE.Q_err) == (0, 0, 0, 0)

    def test_perfect_device(self):
        assert firing_probs(1, 0, 1.0, 0.0) == (1, 0, 1, 0)

    def test_direct_arithmetic(self):
        p_pos, q_pos, p_sig, q_sig = firing_probs(0.59, 0.01, BASELINE.P_act, BASELINE.Q_err)
        assert p_pos == pytest.approx(0.97 * 0.59 * 0.99 + 0.01, abs=1e-15)
        assert q_pos == pytest.approx(0.002 * 0.59 * 0.99 + 0.01, abs=1e-15)
        assert p_sig == pytest.approx(0.59 + 0.41 * 0.01, abs=1e-15)
        assert q_sig == 0.01

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError, match="eta"):
            DetectorPerformance(1.5, 0.0)
        with pytest.raises(ValueError, match="Q_err"):
            ComponentParams(0.9, 0.9, -0.1)

    @pytest.mark.parametrize("bad", ["0.5", True, None, math.nan, 1.5])
    @pytest.mark.parametrize(
        "build",
        [
            lambda v: DetectorPerformance(v, 0.1),
            lambda v: DetectorPerformance(0.5, v),
            lambda v: ComponentParams(0.9, v, 0.0),
            lambda v: ComponentParams(v, 0.9, 0.0),
            lambda v: decision_poly(0.5, 4, 2, v),
            lambda v: de_gain(0.5, v, 0.9, 4, 2),
        ],
    )
    def test_probability_fields_reject_non_probabilities(self, build, bad):
        with pytest.raises(ValueError, match=r"must be (a number|in \[0, 1\])"):
            build(bad)

    @pytest.mark.parametrize(
        "n,k",
        [(True, True), (4, True), (True, 1), (4.0, 2), (0, 1), (65, 1), (3, 4),
         (2.5, 2), ("3", 2), (4, 2.5), (4, "3"), (4, 0)],
    )
    def test_level_config_rejects_non_counts(self, n, k):
        # bool is an int subclass; True must not pass as n = 1 or k = 1
        with pytest.raises(ValueError, match="[nk] must be an integer"):
            LevelConfig(n, k)

    def test_firing_probs_stay_probabilities_at_edges(self):
        # level_map feeds these straight to the level map, with no check_prob
        edges = (0.0, 1.0, 5e-324, 1.0 - 2.0**-53)
        for eta, d, P, Q in itertools.product(edges, repeat=4):
            fp = firing_probs(eta, d, P, Q)
            assert all(0.0 <= x <= 1.0 for x in fp), (eta, d, P, Q, fp)

    @given(det_eta=probs, det_d=probs, P=probs, Q=probs)
    def test_q_pos_below_p_pos_when_q_below_p(self, det_eta, det_d, P, Q):
        lo, hi = sorted((P, Q))
        p_pos, q_pos, _, _ = firing_probs(det_eta, det_d, hi, lo)
        assert q_pos <= p_pos + 1e-15


class TestDeLossCase:
    def test_zero_intermediates(self):
        # a dark, blind detector: every firing probability is 0
        for i in (1, 2, 3):
            assert de_loss_case(DetectorPerformance(0, 0), BASELINE, LevelConfig(3, 1), i) == 0.0

    def test_guaranteed_positives(self):
        # p_pos = 1, q_pos = q_sig = 0: the i = 3 activated auxiliaries meet k = 2
        params = ComponentParams(0.9, 1.0, 0.0)
        assert de_loss_case(DetectorPerformance(1, 0), params, LevelConfig(4, 2), 3) == 1.0

    def test_matches_brute_force(self):
        # p_pos = 0.5 * 0.5 * 0.9 + 0.1 = 0.325, q_pos = q_sig = 0.1
        det, params = DetectorPerformance(0.5, 0.1), ComponentParams(0.98, 0.5, 0.0)
        cfg = LevelConfig(3, 2)
        expected = 0.9 * brute_vote([0.325, 0.1, 0.1], 2) + 0.1 * brute_vote(
            [0.325, 0.1, 0.1], 1
        )
        assert de_loss_case(det, params, cfg, 1) == pytest.approx(expected, abs=1e-12)

    def test_loss_position_out_of_range(self):
        det = DetectorPerformance(0.5, 0.2)
        with pytest.raises(ValueError, match="loss position"):
            de_loss_case(det, BASELINE, LevelConfig(3, 2), 0)
        with pytest.raises(ValueError, match="loss position"):
            de_loss_case(det, BASELINE, LevelConfig(3, 2), 4)
        # a count, like n and k: True is not 1 and 2.0 is not 2
        for bad in (True, 2.0, "2"):
            with pytest.raises(ValueError, match="loss position i must be an integer"):
                de_loss_case(det, BASELINE, LevelConfig(3, 2), bad)


class TestDeSurviveCase:
    def test_certain_detection(self):
        # p_pos = p_sig = 1
        params = ComponentParams(0.9, 1.0, 0.0)
        assert de_survive_case(DetectorPerformance(1, 0), params, LevelConfig(5, 1)) == 1.0

    def test_no_signal(self):
        assert de_survive_case(DetectorPerformance(0, 0), BASELINE, LevelConfig(5, 2)) == 0.0

    def test_two_line_identity_and_brute_force(self):
        # The threshold-shift mixture equals the single-term reformulation.
        # No dark counts: p_sig = eta = 0.9 and p_pos = P_act * eta = 0.6.
        det, params = DetectorPerformance(0.9, 0.0), ComponentParams(0.98, 0.6 / 0.9, 0.0)
        cfg = LevelConfig(4, 2)
        got = de_survive_case(det, params, cfg)
        n, k, x = 4, 2, 0.6
        tail = sum(
            math.comb(n, j) * x**j * (1 - x) ** (n - j) for j in range(k, n + 1)
        )
        reform = 0.9 * math.comb(n, k - 1) * x ** (k - 1) * (1 - x) ** (
            n - k + 1
        ) + tail
        assert got == pytest.approx(reform, abs=1e-14)
        assert got == pytest.approx(brute_vote([0.6] * 4 + [0.9], 2), abs=1e-12)

    @given(model_draws())
    @settings(max_examples=150)
    def test_two_line_identity_randomized(self, draw):
        det, params, cfg = draw
        x, _, p_sig, _ = firing_probs(det.eta, det.dcr, params.P_act, params.Q_err)
        got = de_survive_case(det, params, cfg)
        n, k = cfg.n, cfg.k
        tail = sum(
            math.comb(n, j) * x**j * (1 - x) ** (n - j) for j in range(k, n + 1)
        )
        reform = (
            p_sig
            * math.comb(n, k - 1)
            * x ** (k - 1)
            * (1 - x) ** (n - k + 1)
            + tail
        )
        assert got == pytest.approx(reform, abs=1e-13)


class TestScenarioDecomposition:
    """The scenario functions are the level map's pieces, not a second copy of it."""

    @given(model_draws())
    @settings(max_examples=300)
    def test_weighted_scenarios_are_the_level_map_bit_for_bit(self, draw):
        det, params, cfg = draw
        p = params.p
        t, pw = 0.0, 1.0
        for i in range(1, cfg.n + 1):
            t = t + pw * (1.0 - p) * de_loss_case(det, params, cfg, i)
            pw = pw * p
        de = min(t + pw * de_survive_case(det, params, cfg), 1.0)
        assert de == level_map(det, params, cfg).eta


class TestLevelDeDcr:
    def test_reference_point_first_seed(self):
        de = level_map(DetectorPerformance(0.59, 1e-2), BASELINE, LevelConfig(4, 1)).eta
        assert de == pytest.approx(0.974, abs=1e-3)

    def test_reference_point_second_seed(self):
        de = level_map(DetectorPerformance(0.275, 1e-6), BASELINE, LevelConfig(4, 1)).eta
        assert de == pytest.approx(0.769, abs=1e-3)

    def test_vacuum_seed(self):
        assert level_map(DetectorPerformance(0, 0), BASELINE, LevelConfig(4, 2)).eta == 0.0

    def test_reference_dcr(self):
        dcr = level_map(DetectorPerformance(0.59, 1e-2), BASELINE, LevelConfig(4, 1)).dcr
        assert dcr == pytest.approx(5.3e-2, rel=0.10)

    def test_no_noise_sources(self):
        params = ComponentParams(0.98, 0.97, 0.0)
        assert level_map(DetectorPerformance(0.9, 0.0), params, LevelConfig(6, 2)).dcr == 0.0

    def test_dcr_matches_brute_force(self):
        det = DetectorPerformance(0.9, 1e-3)
        params = ComponentParams(0.98, 0.97, 0.01)
        cfg = LevelConfig(5, 3)
        _, expected = brute_level(det, params, cfg)
        assert level_map(det, params, cfg).dcr == pytest.approx(expected, abs=1e-12)

    @given(model_draws())
    @settings(max_examples=150)
    def test_probabilities_stay_in_unit_interval(self, draw):
        det, params, cfg = draw
        perf = level_map(det, params, cfg)
        assert 0.0 <= perf.eta <= 1.0
        assert 0.0 <= perf.dcr <= 1.0

    @given(model_draws())
    @settings(max_examples=100)
    def test_monotone_in_threshold(self, draw):
        det, params, cfg = draw
        if cfg.k == cfg.n:
            return
        tighter = LevelConfig(cfg.n, cfg.k + 1)
        tight, loose = level_map(det, params, tighter), level_map(det, params, cfg)
        assert tight.eta <= loose.eta + 1e-12
        assert tight.dcr <= loose.dcr + 1e-12

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(edge_probs, min_size=4, max_size=4),
        st.integers(min_value=0, max_value=3),
        edge_probs,
        probs,
        st.integers(min_value=1, max_value=12),
    )
    def test_monotone_in_each_firing_probability(self, fp, which, raised, p, n):
        # _dcr_floor's pruning rests on this: vote tails rise with each
        # detector's probability, so raising any of (p_pos, q_pos, p_sig,
        # q_sig) lowers neither figure by more than rounding
        lo = list(fp)
        hi = list(fp)
        lo[which], hi[which] = sorted((fp[which], raised))
        ks = range(1, n + 1)
        pairs = zip(ks, level_figures(*lo, p, n, ks), level_figures(*hi, p, n, ks))
        for k, before, after in pairs:
            for b, a in zip(before, after):
                assert a >= b - 4 * 2**-53 * b, (which, k, lo, hi, b, a)

    @given(model_draws())
    @settings(max_examples=100)
    def test_survive_term_lower_bounds_de(self, draw):
        det, params, cfg = draw
        lower = params.p**cfg.n * de_survive_case(det, params, cfg)
        assert lower <= level_map(det, params, cfg).eta + 1e-13

    @given(model_draws())
    @settings(max_examples=100)
    def test_dcr_reformulation_identity(self, draw):
        # Mixture over the signal detector == single-term reformulation.
        det, params, cfg = draw
        _, q, _, q_sig = firing_probs(det.eta, det.dcr, params.P_act, params.Q_err)
        n, k = cfg.n, cfg.k
        tail = sum(
            math.comb(n, j) * q**j * (1 - q) ** (n - j) for j in range(k, n + 1)
        )
        reform = (
            q_sig
            * math.comb(n, k - 1)
            * q ** (k - 1)
            * (1 - q) ** (n - k + 1)
            + tail
        )
        assert level_map(det, params, cfg).dcr == pytest.approx(reform, abs=1e-13)


class TestLevelMap:
    def test_reference_level_one(self):
        perf = level_map(DetectorPerformance(0.59, 1e-2), BASELINE, LevelConfig(4, 1))
        assert perf.eta == pytest.approx(0.974, abs=1e-3)
        assert perf.dcr == pytest.approx(5.3e-2, rel=0.10)

    def test_reference_level_two(self):
        perf = level_map(
            DetectorPerformance(0.974, 5.3e-2), BASELINE, LevelConfig(4, 2)
        )
        assert perf.eta == pytest.approx(0.982, abs=1e-3)
        assert perf.dcr == pytest.approx(2.7e-2, rel=0.10)

    def test_reference_degraded_gate(self):
        params = ComponentParams(0.98, 0.40, 0.002)
        perf = level_map(DetectorPerformance(0.59, 1e-2), params, LevelConfig(2, 1))
        assert perf.eta == pytest.approx(0.751, abs=1e-3)
        assert perf.dcr == pytest.approx(3.2e-2, rel=0.10)


log_dcr = st.floats(min_value=-30.0, max_value=-1.0).map(lambda e: 10.0**e)


class TestCheckInt:
    @pytest.mark.parametrize("value,lo,hi", [(1, 1, 1), (3, 1, 4), (10**30, 1, None), (-2, -5, 0)])
    def test_accepts_ints_in_range(self, value, lo, hi):
        assert check_int("m", value, lo, hi) is value

    @pytest.mark.parametrize(
        "value,lo,hi",
        [(True, 1, 4), (False, 0, 4), (2.5, 1, 4), (2.0, 1, 4), ("3", 1, 4), (None, 1, 4),
         (0, 1, 4), (5, 1, 4), (0, 1, None), (np.int64(3), 1, 4)],
    )
    def test_rejects_non_ints_and_out_of_range(self, value, lo, hi):
        with pytest.raises(ValueError, match="m must be an integer"):
            check_int("m", value, lo, hi)


class TestScalarBatchAgree:
    """The batch kernel runs the scalar path's code, so values are identical."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_bit_identical(self, data):
        n = data.draw(st.integers(min_value=1, max_value=12))
        k = data.draw(st.integers(min_value=1, max_value=n))
        params = ComponentParams(data.draw(probs), data.draw(probs), data.draw(probs))
        etas = data.draw(st.lists(probs, min_size=1, max_size=8))
        ds = [data.draw(log_dcr) for _ in etas]
        ((e, d),) = _kernels.level_map_batch(
            np.array(etas), np.array(ds), params.p, params.P_act, params.Q_err, n, (k,)
        )
        for j, (eta, dcr) in enumerate(zip(etas, ds)):
            perf = level_map(DetectorPerformance(eta, dcr), params, LevelConfig(n, k))
            assert perf.eta == e[j] and perf.dcr == d[j]


class TestAllThresholds:
    """One pass over every threshold of an n gives each single-threshold value exactly."""

    @staticmethod
    def _assert_each_threshold_alone(fp, p, n, ks):
        every = level_figures(*fp, p, n, ks)
        assert len(every) == len(ks)
        for (de, dcr), k in zip(every, ks):
            ((de1, dcr1),) = level_figures(*fp, p, n, (k,))
            assert np.array_equal(de, de1) and np.array_equal(dcr, dcr1), (n, k)
            assert type(de) is type(de1) and type(dcr) is type(dcr1)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_bit_identical_to_single_threshold(self, data):
        n = data.draw(st.integers(min_value=1, max_value=12))
        params = ComponentParams(data.draw(probs), data.draw(probs), data.draw(probs))
        etas = data.draw(st.lists(probs, min_size=1, max_size=8))
        ds = [data.draw(log_dcr) for _ in etas]
        ks = range(1, n + 1)
        for eta, d in zip(etas, ds):
            fp = firing_probs(eta, d, params.P_act, params.Q_err)
            self._assert_each_threshold_alone(fp, params.p, n, ks)
        fp = firing_probs(np.array(etas), np.array(ds), params.P_act, params.Q_err)
        self._assert_each_threshold_alone(fp, params.p, n, ks)

    @pytest.mark.parametrize("n", [32, 64])
    def test_deep_levels_at_tiny_dark_count(self, n):
        etas = [0.0, 0.59, 0.934, 1.0]
        ks = range(1, n + 1)
        for eta in etas:
            fp = firing_probs(eta, 1e-30, BASELINE.P_act, BASELINE.Q_err)
            self._assert_each_threshold_alone(fp, BASELINE.p, n, ks)
        fp = firing_probs(np.array(etas), np.full(4, 1e-30), BASELINE.P_act, BASELINE.Q_err)
        self._assert_each_threshold_alone(fp, BASELINE.p, n, ks)

    def test_thresholds_in_the_order_given(self):
        fp = firing_probs(0.59, 1e-2, BASELINE.P_act, BASELINE.Q_err)
        forward = level_figures(*fp, BASELINE.p, 8, range(1, 9))
        assert level_figures(*fp, BASELINE.p, 8, [8, 3, 3, 1]) == [
            forward[7], forward[2], forward[2], forward[0]
        ]

    def test_batch_kernel_returns_every_threshold(self):
        etas, ds = np.array([0.59, 0.974]), np.array([1e-2, 5.3e-2])
        figures = _kernels.level_map_batch(etas, ds, 0.98, 0.97, 0.002, 4, range(1, 5))
        for k, (e, d) in zip(range(1, 5), figures):
            for j in range(2):
                perf = level_map(DetectorPerformance(etas[j], ds[j]), BASELINE, LevelConfig(4, k))
                assert perf.eta == e[j] and perf.dcr == d[j]


def mp_level(eta, d, params, n, ks):
    """{k: (de, dcr)} of one level in 30-digit arithmetic from the same float inputs."""
    mp = mpmath.mpf
    with mpmath.workdps(30):
        eta, d = mp(eta), mp(d)
        p, P, Q = mp(params.p), mp(params.P_act), mp(params.Q_err)
        p_pos, q_pos = P * eta * (1 - d) + d, Q * eta * (1 - d) + d
        p_sig, q_sig = eta + (1 - eta) * d, d

        def pmfs(m, x):
            return [mpmath.binomial(m, j) * x**j * (1 - x) ** (m - j) for j in range(m + 1)]

        def tails(m, x):
            row, out = pmfs(m, x), [mp(0)] * (m + 2)
            for j in range(m, -1, -1):
                out[j] = out[j + 1] + row[j]
            return out

        def conv(row, table, t):
            return sum(row[j] * table[min(max(t - j, 0), len(table) - 1)] for j in range(len(row)))

        scenarios = [(p ** (i - 1) * (1 - p), pmfs(i, p_pos), tails(n - i, q_pos))
                     for i in range(1, n + 1)]
        surv, vac = tails(n, p_pos), tails(n, q_pos)
        out = {}
        for k in ks:
            de = sum(w * ((1 - q_sig) * conv(row, table, k) + q_sig * conv(row, table, k - 1))
                     for w, row, table in scenarios)
            de += p**n * (p_sig * surv[k - 1] + (1 - p_sig) * surv[k])
            out[k] = de, (1 - q_sig) * vac[k] + q_sig * vac[k - 1]
        return out


class TestHighPrecisionReference:
    """Deep-level points: the float level map within 1e-13 of 30-digit values."""

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_relative_error(self, n):
        ks = sorted({1, 2, n // 2, n // 2 + 1, n})
        for d in (1e-30, 1e-20, 1e-10):
            for eta in (0.59, 0.934):
                ref = mp_level(eta, d, BASELINE, n, ks)
                fp = firing_probs(eta, d, BASELINE.P_act, BASELINE.Q_err)
                for k, figures in zip(ks, level_figures(*fp, BASELINE.p, n, ks)):
                    for got, want in zip(figures, ref[k]):
                        assert abs(got - want) <= 1e-13 * abs(want), (n, k, d, eta, got, want)

    def test_golden_trajectories(self):
        # each level starts from the previous level's 30-digit values, so an
        # error that compounds across levels would show at the deep levels
        for table in TABLES.values():
            for series in table:
                eta, d = series.seed.eta, series.seed.dcr
                for cfg, got in zip(series.schedule, series_trajectory(series)[1:]):
                    eta, d = mp_level(eta, d, series.params, cfg.n, [cfg.k])[cfg.k]
                    for g, want in ((got.eta, eta), (got.dcr, d)):
                        assert abs(g - want) <= 1e-13 * abs(want), (series.label, cfg, g, want)


class TestIterateSchedule:
    def test_stable_point_first_seed(self):
        sched = Schedule(BASELINE, (LevelConfig(4, 1),) + (LevelConfig(4, 2),) * 7)
        traj = iterate_schedule(DetectorPerformance(0.59, 1e-2), sched)
        by_level = {pt.level: pt.perf for pt in traj.points}
        assert by_level[7].eta == pytest.approx(0.978, abs=1e-3)
        assert by_level[7].dcr == pytest.approx(2.4e-5, rel=0.10)

    def test_stable_point_second_seed(self):
        sched = Schedule(BASELINE, (LevelConfig(8, 1),) + (LevelConfig(8, 4),) * 7)
        traj = iterate_schedule(DetectorPerformance(0.275, 1e-6), sched)
        final = traj.final()
        assert final.eta == pytest.approx(0.934, abs=1e-3)
        assert final.dcr == pytest.approx(8.5e-10, rel=0.10)

    def test_empty_schedule_rejected(self):
        with pytest.raises(ValueError, match="at least one level"):
            Schedule(BASELINE, ())

    @pytest.mark.parametrize("bad", [(4, 2), [4, 2], None])
    def test_non_level_config_level_rejected(self, bad):
        with pytest.raises(ValueError, match="LevelConfig instances"):
            Schedule(BASELINE, (LevelConfig(4, 1), bad))

    @pytest.mark.parametrize(
        "params,levels,field",
        [
            (None, (LevelConfig(1, 1),), "params"),
            ((0.98, 0.97, 0.002), (LevelConfig(1, 1),), "params"),
            (BASELINE, 5, "levels"),
            (BASELINE, None, "levels"),
        ],
    )
    def test_wrong_typed_fields_rejected(self, params, levels, field):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            Schedule(params, levels)

    @pytest.mark.parametrize("bad", [0, MAX_LEVELS + 1, True, 2.0, 2.5, "3"])
    def test_level_cap_and_type_enforced(self, bad):
        with pytest.raises(ValueError, match="max_levels"):
            ConvergenceRule(max_levels=bad)
        assert ConvergenceRule(max_levels=MAX_LEVELS).max_levels == MAX_LEVELS

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 10**400, -1.0, True, "0.1", None])
    @pytest.mark.parametrize("field", ["eta_tol", "dcr_tol"])
    def test_tolerances_must_be_finite_non_negative(self, field, bad):
        # a NaN tolerance would compare false and silently disable early stopping
        with pytest.raises(ValueError, match="tol"):
            ConvergenceRule(**{field: bad})

    def test_constant_schedule_matches_repeated_map(self):
        cfg = LevelConfig(5, 2)
        sched = Schedule(BASELINE, (cfg,))
        rule = ConvergenceRule(max_levels=6, eta_tol=0.0, dcr_tol=0.0)
        traj = iterate_schedule(DetectorPerformance(0.59, 1e-2), sched, rule)
        # zero tolerances never stop early
        assert not traj.converged and traj.converged_at is None
        det = DetectorPerformance(0.59, 1e-2)
        for pt in traj.points[1:]:
            det = level_map(det, BASELINE, cfg)
            assert pt.perf == det

    def test_final_config_repeats_past_schedule_end(self):
        sched = Schedule(BASELINE, (LevelConfig(4, 1), LevelConfig(4, 2)))
        rule = ConvergenceRule(max_levels=5, eta_tol=0.0, dcr_tol=0.0)
        traj = iterate_schedule(DetectorPerformance(0.59, 1e-2), sched, rule)
        assert [pt.config for pt in traj.points[1:]] == [
            LevelConfig(4, 1),
            LevelConfig(4, 2),
            LevelConfig(4, 2),
            LevelConfig(4, 2),
            LevelConfig(4, 2),
        ]

    def test_convergence_flag(self):
        sched = Schedule(BASELINE, (LevelConfig(4, 2),))
        traj = iterate_schedule(DetectorPerformance(0.59, 1e-2), sched)
        assert traj.converged
        assert traj.converged_at == traj.points[-1].level
        assert traj.points[-1].level < 32

    def test_seed_point_has_no_config(self):
        sched = Schedule(BASELINE, (LevelConfig(4, 1),))
        traj = iterate_schedule(DetectorPerformance(0.59, 1e-2), sched)
        assert traj.points[0].config is None
        assert all(pt.config is not None for pt in traj.points[1:])


class TestEffectiveTransmission:
    def test_identity(self):
        assert effective_transmission(0.98, 1) == 0.98

    def test_lossless(self):
        assert effective_transmission(1.0, 10) == 1.0

    def test_power_matches_repeated_product(self):
        expected = 1.0
        for _ in range(10):
            expected *= 0.98
        assert effective_transmission(0.98, 10) == pytest.approx(expected, rel=1e-12)
        assert effective_transmission(0.98, 10) == pytest.approx(0.817, abs=5e-4)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            effective_transmission(1.5, 2)
        for bad in (0, -3, True, 2.0, "2", 2**1024):
            with pytest.raises(ValueError, match="N must be an integer"):
                effective_transmission(0.9, bad)
        assert effective_transmission(0.5, 10**300) == 0.0


class TestApproxIntermediates:
    def test_small_dark_count_forms(self):
        p_pos, q_pos, p_sig, q_sig = approx_firing_probs(
            0.59, 0.01, BASELINE.P_act, BASELINE.Q_err
        )
        assert p_pos == pytest.approx(0.97 * 0.59, abs=1e-15)
        assert q_pos == pytest.approx(0.002 * 0.59 + 0.01, abs=1e-15)
        assert p_sig == 0.59
        assert q_sig == 0.01
