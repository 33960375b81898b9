"""Oracle tests: enumeration vs. closed form, Monte Carlo determinism."""

import math
from concurrent.futures import ThreadPoolExecutor

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
from espd import _kernels, oracle

from conftest import traced_peak

BASELINE = ComponentParams(p=0.98, P_act=0.97, Q_err=0.002)

# A probability exactly on the draw grid m / 2**53
GRID = (3 * 2**50 + 12345) / 2**53


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

    def test_partial_last_block_same_at_any_thread_count(self):
        # four blocks, the last one partial: 3 threads run blocks {0, 3}, {1}, {2}
        det = DetectorPerformance(0.59, 1e-2)
        cfg = LevelConfig(4, 2)
        trials = 3 * oracle.MC_BLOCK_TRIALS + 1234
        a = mc_level(det, BASELINE, cfg, trials, 11, threads=1)
        assert mc_level(det, BASELINE, cfg, trials, 11, threads=2) == a
        assert mc_level(det, BASELINE, cfg, trials, 11, threads=3) == a

    def test_reference_point_within_four_stderr(self):
        det = DetectorPerformance(0.59, 1e-2)
        de, _, se_de, _ = mc_level(det, BASELINE, LevelConfig(4, 1), 1_000_000, 3)
        assert abs(de - 0.974) <= 4 * max(se_de, 1e-6)

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            mc_level(DetectorPerformance(0.5, 0.0), BASELINE, LevelConfig(3, 1), 0, 1)

    @pytest.fixture
    def no_mc_work(self, monkeypatch):
        # the inputs must be rejected before any block runs or pool thread starts
        def started(*args, **kwargs):
            raise AssertionError("work started before the inputs were checked")

        monkeypatch.setattr(oracle, "ThreadPoolExecutor", started)
        monkeypatch.setattr(_kernels, "mc_block", started)

    @pytest.mark.parametrize("bad", [0, -1, 2.5, 2.0, True, "2", 10**9 + 1])
    @pytest.mark.parametrize("field", ["trials", "threads"])
    def test_counts_must_be_positive_integers(self, no_mc_work, field, bad):
        counts = {"trials": 200_000, "threads": 2, field: bad}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            mc_level(
                DetectorPerformance(0.5, 0.0), BASELINE, LevelConfig(3, 1),
                counts["trials"], 1, threads=counts["threads"],
            )

    @pytest.mark.parametrize("bad", [-1, 2**64, 2.0, True, "1"])
    def test_seed_must_be_a_64_bit_integer(self, no_mc_work, bad):
        with pytest.raises(ValueError, match="seed must be an integer"):
            mc_level(
                DetectorPerformance(0.5, 0.0), BASELINE, LevelConfig(3, 1),
                200_000, bad, threads=2,
            )

    def test_seed_range_ends_accepted(self):
        det = DetectorPerformance(0.59, 1e-2)
        for seed in (0, 2**64 - 1):
            rep = oracle_report(det, BASELINE, LevelConfig(4, 1), 1000, seed)
            assert rep.seed == seed

    def test_thread_cap(self, monkeypatch):
        pools = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        # above the cap no pool starts; at the cap one block gets one pool thread
        monkeypatch.setattr(oracle, "ThreadPoolExecutor", RecordingPool)
        det, cfg = DetectorPerformance(0.59, 1e-2), LevelConfig(4, 1)
        with pytest.raises(ValueError, match="threads must be an integer in"):
            mc_level(det, BASELINE, cfg, 200_000, 1, threads=oracle.MC_MAX_THREADS + 1)
        assert pools == []
        assert mc_level(det, BASELINE, cfg, 1000, 1, threads=oracle.MC_MAX_THREADS) == (
            mc_level(det, BASELINE, cfg, 1000, 1)
        )
        assert pools == [1, 1]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_driver_memory_independent_of_trials(self, monkeypatch, threads):
        # 10**9 trials are 15,259 blocks; the driver must hold no object per block.
        # The stub counts every trial as a detection, so de_hat == 1 checks that
        # each block ran exactly once with its own size.
        monkeypatch.setattr(_kernels, "mc_block", lambda state0, size, *args: (size, 0))
        det, cfg = DetectorPerformance(0.59, 1e-2), LevelConfig(4, 1)
        got, peak = traced_peak(mc_level, det, BASELINE, cfg, 10**9, 1, threads=threads)
        assert got == (1.0, 0.0, 0.0, 0.0)
        assert peak < 1e6, f"peak {peak / 1e6:.1f} MB"

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


# (seed, ntrials, n, k, p, p_pos, q_pos, p_sig, q_sig) -> tallies recorded
# from the kernel that mixed and converted a whole block to floats at once
# (float_block below, which would take 140 MB on the n = 64 block)
PINNED_BLOCKS = [
    ((1, 1, 1, 1, 0.5, 0.3, 0.1, 0.7, 0.2), (0, 0)),
    ((2, 1, 64, 20, 0.99, 0.4, 0.2, 0.9, 0.05), (1, 0)),
    ((3, 10007, 12, 2, 0.98, 0.5765769999999999, 0.0111682, 0.5941, 0.01), (9525, 92)),
    ((4, 65536, 12, 6, 1.0, GRID, 1e-30, 1.0, 0.0), (31845, 0)),
    ((5, 65536, 64, 30, 0.995, 0.6, GRID, 0.95, 1e-30), (57930, 5244)),
    ((6, 65536, 1, 1, 0.0, 0.8, 0.3, 1.0, GRID), (57423, 36945)),
    ((7, 1000, 64, 3, 0.97, 1e-30, 0.02, 0.0, 1.0), (197, 382)),
]


def float_block(state0, ntrials, n, k, p, p_pos, q_pos, p_sig, q_sig):
    """Reference: the whole block mixed at once and compared as float64."""
    per = n + 2
    u64 = np.uint64
    idx = np.arange(ntrials * per, dtype=u64).reshape(ntrials, per)
    z = u64(state0) + (idx + u64(1)) * u64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> u64(30))) * u64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> u64(27))) * u64(0x94D049BB133111EB)
    u = ((z ^ (z >> u64(31))) >> u64(11)).astype(np.float64) * 2.0**-53
    # p**j as the running product 1, p, p * p, ...
    reached = u[:, :1] < np.cumprod([1.0] + [p] * n)
    hit = u[:, 1:] < np.array([p_pos] * n + [p_sig])
    dark = u[:, 1:] < np.array([q_pos] * n + [q_sig])
    fires = np.where(reached, hit, dark).sum(axis=1)
    return int((fires >= k).sum()), int((dark.sum(axis=1) >= k).sum())


class TestMcBlock:
    @pytest.mark.parametrize("case, tallies", PINNED_BLOCKS)
    def test_pinned_tallies(self, case, tallies):
        seed, *rest = case
        assert _kernels.mc_block(_kernels.mix64(seed), *rest) == tallies

    def test_matches_float_reference_randomized(self):
        rng = np.random.default_rng(9)
        edges = [0.0, 1.0, 1e-30, 5e-324, GRID, 1 - 2**-53]
        for _ in range(40):
            n = int(rng.choice([1, 2, 5, 12, 33, 64]))
            k = int(rng.integers(1, n + 2))
            probs = [
                float(rng.choice(edges)) if rng.random() < 0.3 else float(rng.uniform())
                for _ in range(5)
            ]
            ntrials = int(rng.integers(1, 4000))
            state0 = _kernels.mix64(int(rng.integers(0, 2**63)))
            args = (state0, ntrials, n, k, *probs)
            assert _kernels.mc_block(*args) == float_block(*args), args

    @pytest.mark.parametrize("n", [1, 12, 64])
    def test_matches_float_reference_across_chunks(self, n):
        # at least three full chunks and a partial one
        rng = np.random.default_rng(n)
        rows = _kernels.MC_CHUNK_DRAWS // (n + 2)
        edges = [0.0, 1.0, 1e-30, 5e-324, GRID, 1 - 2**-53]
        for _ in range(3):
            k = int(rng.integers(1, n + 2))
            probs = [
                float(rng.choice(edges)) if rng.random() < 0.3 else float(rng.uniform())
                for _ in range(5)
            ]
            ntrials = 3 * rows + int(rng.integers(1, rows))
            state0 = _kernels.mix64(int(rng.integers(0, 2**63)))
            args = (state0, ntrials, n, k, *probs)
            assert _kernels.mc_block(*args) == float_block(*args), args

    def test_pinned_cases_cover_chunk_edges(self):
        sizes = {(c[1], c[2]) for c, _ in PINNED_BLOCKS}
        assert {oracle.MC_BLOCK_TRIALS, 1} <= {t for t, _ in sizes}
        assert {n for _, n in sizes} == {1, 12, 64}
        for ntrials, n in sizes - {(1, 1), (1, 64)}:
            rows = _kernels.MC_CHUNK_DRAWS // (n + 2)
            assert ntrials > rows and ntrials % rows, (ntrials, n)

    @pytest.mark.parametrize("p", [0.0, 0.5, 0.98, 1.0])
    def test_signal_and_vacuum_trials_share_detector_draws(self, p):
        # with the photon's firing probabilities equal to the dark ones, reach
        # changes no comparison, so both trials count the same positives
        for k, probs in ((1, (0.3, 0.3, 0.6, 0.6)), (3, (GRID, GRID, 0.1, 0.1))):
            de, dcr = _kernels.mc_block(_kernels.mix64(k), 20_000, 5, k, p, *probs)
            assert de == dcr > 0, (k, de, dcr)

    def test_loss_draw_reaches_auxiliary_j_with_probability_p_to_the_j(self):
        # every reached detector fires and no other, so >= j + 1 positives
        # means the photon reached auxiliary j (j = n: it survived)
        n, p, trials = 8, 0.5, 100_000
        for j in range(n + 1):
            state0 = _kernels.mix64(j)
            de, dcr = _kernels.mc_block(state0, trials, n, j + 1, p, 1.0, 0.0, 1.0, 0.0)
            assert dcr == 0
            reach = p**j
            band = 5 * math.sqrt(reach * (1 - reach) / trials)
            assert abs(de / trials - reach) <= band, (j, de)

    @pytest.mark.parametrize(
        "x", [0.0, 1.0, 1e-30, 5e-324, GRID, 0.5, 0.1, 1 - 2**-53, 0.5765769999999999]
    )
    def test_threshold_matches_float_compare(self, x):
        t = _kernels.threshold53(x)
        assert 0 <= t <= 2**53
        for m in (t - 1, t, t + 1):
            if 0 <= m < 2**53:
                assert (m * 2**-53 < x) == (m < t), m

    def test_threshold_clamped(self):
        assert _kernels.threshold53(1.0 + 2**-52) == 2**53
        assert _kernels.threshold53(-0.25) == 0

    def test_full_block_memory_bounded(self):
        args = (64, 30, 0.995, 0.6, GRID, 0.95, 0.01)
        _, peak = traced_peak(_kernels.mc_block, _kernels.mix64(5), oracle.MC_BLOCK_TRIALS, *args)
        assert peak <= 16e6, f"peak {peak / 1e6:.1f} MB"


def where_prod_masses(probs):
    """Reference: vote_mass for k = 0..m + 1 from every outcome's factors
    gathered in a (2**m, m) array."""
    probs = np.asarray(probs, dtype=np.float64)
    m = probs.shape[0]
    masks = np.arange(1 << m, dtype=np.uint32)
    bits = ((masks[:, None] >> np.arange(m, dtype=np.uint32)[None, :]) & 1).astype(bool)
    pr = np.where(bits, probs[None, :], 1.0 - probs[None, :]).prod(axis=1)
    pop = bits.sum(axis=1)
    return [float(pr[pop >= k].sum()) for k in range(m + 2)]


class TestVoteMass:
    @pytest.mark.parametrize("m", range(1, 18))
    def test_matches_where_prod_bit_for_bit(self, m):
        rng = np.random.default_rng(100 + m)
        edges = [0.0, 1.0, 1e-30, 5e-324, 0.5, 1 - 2**-53]
        for _ in range(3):
            probs = np.array([
                float(rng.choice(edges)) if rng.random() < 0.3 else float(rng.uniform())
                for _ in range(m)
            ])
            got = [_kernels.vote_mass(probs, k) for k in range(m + 2)]
            assert got == where_prod_masses(probs), probs


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

    def test_size_cap_checked_before_any_route(self, monkeypatch):
        # 10**9 trials would run for minutes: the cap must fail before them
        def started(*args, **kwargs):
            raise AssertionError("a route ran before the size cap was checked")

        for owner, name in ((oracle, "enumerate_level"), (oracle, "ThreadPoolExecutor"),
                            (_kernels, "mc_block")):
            monkeypatch.setattr(owner, name, started)
        with pytest.raises(ValueError, match="n <= 16"):
            oracle_report(
                DetectorPerformance(0.5, 0.0), BASELINE, LevelConfig(17, 1), 10**9, 0
            )

    def test_agreeing_routes_pass(self):
        rep = oracle_report(DetectorPerformance(0.59, 1e-2), BASELINE, LevelConfig(4, 1),
                            100_000, 42)
        assert rep.enum_ok is True and rep.mc_ok is True

    def test_zero_count_estimate_passes_on_the_truths_stderr(self):
        # DCR 1.3e-5 over 1000 trials: no dark count, so the estimate's stderr is
        # 0 and only the enumerated truth's stderr keeps the band open
        rep = oracle_report(DetectorPerformance(0.59, 1e-2), BASELINE, LevelConfig(4, 3),
                            1000, 0)
        assert (rep.mc_dcr, rep.mc_stderr_dcr) == (0.0, 0.0) and rep.enum_dcr > 0.0
        assert rep.mc_ok is True

    @pytest.mark.parametrize("route", ["mc_level", "enumerate_level"])
    def test_biased_route_fails_verdict(self, monkeypatch, route):
        # 0.01 is 20 stderr of 100k trials at DE 0.974
        real = getattr(oracle, route)

        def biased(*args, **kwargs):
            de, *rest = real(*args, **kwargs)
            return (de - 0.01, *rest)

        monkeypatch.setattr(oracle, route, biased)
        rep = oracle_report(DetectorPerformance(0.59, 1e-2), BASELINE, LevelConfig(4, 1),
                            100_000, 42)
        assert rep.mc_ok is False
        assert rep.enum_ok is (route == "mc_level")

    @staticmethod
    def _tail_cases(seed, count):
        # the paper's dark-count regime: d log-uniform down to 1e-30, and only
        # the cases whose closed-form DCR is below 1e-12, where the absolute
        # bound of 1e-12 checks nothing
        rng = np.random.default_rng(seed)
        cases = []
        while len(cases) < count:
            det = DetectorPerformance(rng.uniform(0, 1), 10 ** rng.uniform(-30, -1))
            params = ComponentParams(*rng.uniform(0.5, 1, 2), 10 ** rng.uniform(-6, -1))
            n = int(rng.integers(1, 13))
            cfg = LevelConfig(n, int(rng.integers(1, n + 1)))
            if level_map(det, params, cfg).dcr < 1e-12:
                cases.append((det, params, cfg))
        return cases

    def test_routes_agree_relatively_in_the_dark_count_tail(self):
        for det, params, cfg in self._tail_cases(31, 300):
            rep = oracle_report(det, params, cfg, 100, 1)
            assert rep.enum_ok is True, (det, params, cfg)
            for closed, enum in ((rep.closed_de, rep.enum_de), (rep.closed_dcr, rep.enum_dcr)):
                bound = oracle.ENUM_REL_TOL * max(closed, enum) + oracle.ENUM_FLOOR
                assert abs(closed - enum) <= bound, (det, params, cfg)

    def test_closed_form_off_in_the_tail_fails_verdict(self, monkeypatch):
        # a DCR off by 1e-6 relative is within 1e-12 absolute below 1e-12
        real = oracle.level_map

        def scaled(*args):
            out = real(*args)
            return out._replace(dcr=out.dcr * (1.0 + 1e-6))

        monkeypatch.setattr(oracle, "level_map", scaled)
        for det, params, cfg in self._tail_cases(32, 20):
            rep = oracle_report(det, params, cfg, 100, 1)
            assert rep.enum_abs_err_dcr <= 1e-12
            assert rep.enum_ok is False, (det, params, cfg)
